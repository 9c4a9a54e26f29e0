"""``python -m eitnet <subcommand>``: the same entry point as the ``eitnet`` script."""

from .cli import main

if __name__ == "__main__":
    main()
