"""``python -m lazysat``: the same front end as the ``lazysat`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
