"""Text-file helpers for the tests: read CLI report CSVs, write camera configs."""

from pathlib import Path

from eitnet.stream import CameraSpec


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Returns (comment lines without '#', data rows split on commas)."""
    comments, rows = [], []
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        else:
            rows.append(line.split(","))
    return comments, rows


def camera_config_text(specs: list[CameraSpec]) -> str:
    """The config text ``parse_camera_config`` reads back as ``specs``."""
    lines = [
        f"id={s.camera_id} period_us={s.frame_period_us} offset_us={s.clock_offset_us} "
        f"jitter_us={s.jitter_std_us!r} drop_prob={s.drop_probability!r}"
        for s in specs
    ]
    return "\n".join(lines) + "\n"
