"""The package's export list names exactly its public names."""

import inspect

import seednorm


def test_all_matches_public_names():
    # submodules are attributes too, but not exports
    public = {name for name, value in vars(seednorm).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(seednorm.__all__) == public
