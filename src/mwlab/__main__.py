"""``python -m mwlab``: the ``mwlab`` command without installing it."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
