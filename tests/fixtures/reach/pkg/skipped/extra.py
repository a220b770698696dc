"""A package the census is told to skip."""


def skipped_orphan():
    return 4
