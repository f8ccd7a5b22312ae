"""The one result of a pipeline stage that takes no input."""

import functools


def once(build):
    """A plain function, with build's name, module and docstring, that
    runs build on its first call and returns that result on every call.
    A build that raises leaves nothing behind."""
    built = []

    @functools.wraps(build)
    def stage():
        if not built:
            built.append(build())
        return built[0]

    return stage
