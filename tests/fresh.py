"""What a test empties to start from a fresh process's state."""

from ewflab import bellbohm, born, exact, histories


def forget_history_caches() -> None:
    """Empty every per-process cache `histories`, `born` and `bellbohm` define, and those `exact` bounds.

    Every such cache is a function of its module with `cache_clear`, so a
    cache added to one of the first three later is emptied here too: their
    read plans and kernel rows are derived from the basis engines.  Of
    `exact`'s, only the bounded ones hold coin forms, the engines they read
    or a check of those engines.
    """
    for module in (histories, born, bellbohm, exact):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__ and (
                    module is not exact or value.cache_info().maxsize is not None):
                value.cache_clear()
