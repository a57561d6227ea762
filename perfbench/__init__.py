"""The repository's proving benchmark (see README.md in this directory)."""
