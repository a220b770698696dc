"""DUR001 fixture: journaled delivery state mutated around the journal."""


class Host:
    def __init__(self, window, registry):
        self.dedup = window                    # finding: rebinding
        self.landings = registry               # finding: rebinding


def poke(firewall, peer):
    firewall.dedup._seen[peer] = [1]           # finding: private reach
    firewall.landings._tombstones.clear()      # finding: private reach


def fine(firewall, peer, seq):
    verdict = firewall.dedup.observe(peer, seq)     # ok: journal API
    firewall.landings.tombstone("w:1:2", "crash")   # ok: journal API
    return verdict


def replay_install(firewall, image):
    firewall.dedup.restore_durable(image.dedup.to_durable())  # ok: into
