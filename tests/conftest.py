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
        if event.kind == "dispatch":
            ((rid, cid),) = event.members
            view = started.setdefault(
                rid,
                SimpleNamespace(round_id=rid, started_at=event.at, cohort=[], completed_at={}),
            )
            view.cohort.append(cid)
            view.completed_at[cid] = event.completed_at
        elif event.kind == "aggregate":
            view = started[event.members[0][0]]
            view.fast_ids = sorted(cid for _, cid in event.members)
            view.advanced_at = event.at
            view.w_after = event.w
            views.append(view)
    return views
