"""What a test empties to start from a fresh process's state."""

from ewflab import histories


def forget_history_caches() -> None:
    """Empty every per-process cache `histories` defines, as a command-line process starts.

    Every such cache is a function of the module with `cache_clear`, so a
    cache added to the module later is emptied here too.
    """
    for value in vars(histories).values():
        if hasattr(value, "cache_clear") and value.__module__ == histories.__name__:
            value.cache_clear()
