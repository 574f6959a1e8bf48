"""The one call counter of the tests that pin how often a function runs."""


def count_calls(monkeypatch, targets, label=lambda name, kwargs: name):
    """The list to which each later call of a (module, name) of ``targets``
    appends ``label(name, kwargs)``; the call then runs as before."""
    calls = []

    def counted(name, function):
        def call(*args, **kwargs):
            calls.append(label(name, kwargs))
            return function(*args, **kwargs)

        return call

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls
