"""The "lider" Python DataSource: LIDER as an index over its saved, memory-mapped layout."""
from repro.datasource.lider_source import (  # noqa: F401
    LiderDataSource,
    register_lider_source,
    save_lider_index,
)
