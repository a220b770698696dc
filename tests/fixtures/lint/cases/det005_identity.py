"""DET005 fixture: id()-keyed ordering/membership; hash() not in __hash__."""


def identity_games(objects, seen, registry):
    ranked = sorted(objects, key=id)         # finding: key=id
    if id(objects[0]) in seen:               # finding: id membership
        return ranked
    seen.add(id(objects[0]))                 # finding: id into collection
    registry[id(objects[0])] = 1             # finding: id as key
    pinned = id(objects[0]) in seen  # lint: disable=DET005 - refs pinned by caller
    return ranked, pinned


def seed_for(host):
    return hash(host) & 0xFFFF               # finding: per-process hash


class Key:
    def __init__(self, name):
        self.name = name

    def __hash__(self):
        return hash(self.name)               # clean: defining __hash__
