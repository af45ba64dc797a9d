"""What a test empties to start from a fresh process's state."""

from ewflab import exact, histories


def forget_history_caches() -> None:
    """Empty every per-process cache `histories` defines, and the basis and pilot forms `exact` bounds.

    Every such cache is a function of its module with `cache_clear`, so a
    cache added to `histories` later is emptied here too; of `exact`'s,
    only the bounded ones hold coin forms or the engines they read.
    """
    for module in (histories, exact):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__ and (
                    module is histories or value.cache_info().maxsize is not None):
                value.cache_clear()
