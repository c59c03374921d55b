"""Helpers shared by the test modules."""

from types import SimpleNamespace


def round_views(events):
    """Per-round views of a synchronous run's trace, in advance order.

    Each view has round_id, started_at, cohort (dispatch order),
    completed_at (client id -> completion time, for every dispatched
    client), fast_ids (sorted), advanced_at and w_after.
    """
    started = {}
    views = []
    for event in events:
        if event.kind == "dispatches":
            (update,) = event.updates
            view = started.setdefault(
                update.round_id,
                SimpleNamespace(
                    round_id=update.round_id, started_at=event.at, cohort=[], completed_at={}
                ),
            )
            view.cohort.append(update.client_id)
            view.completed_at[update.client_id] = update.completed_at
        elif event.kind == "aggregated_updates":
            view = started[event.updates[0].round_id]
            view.fast_ids = sorted(u.client_id for u in event.updates)
            view.advanced_at = event.at
            view.w_after = event.w
            views.append(view)
    return views
