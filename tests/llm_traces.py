"""Telemetry traces for the LLM analyzer tests.

:func:`distinct_traces` builds a deterministic set of structurally
distinct telemetry sequences (benign, signaling storm, null cipher,
identity exposure, replay — plus length-varied benigns).
"""

from repro.telemetry.mobiflow import MobiFlowRecord


def _rec(t: float, msg: str, session: int = 1, **kwargs) -> MobiFlowRecord:
    defaults = dict(protocol="RRC", direction="UL", rnti=0x100 + session)
    defaults.update(kwargs)
    return MobiFlowRecord(timestamp=t, msg=msg, session_id=session, **defaults)


def benign_trace(session: int = 1, t0: float = 0.0, pad: int = 0) -> list:
    """A clean registration; ``pad`` extra identity round trips vary the
    msg sequence without tripping any attack signature."""
    seq: list = [
        ("RRCSetupRequest", dict(establishment_cause="mo-Signalling")),
        ("RRCSetup", dict(direction="DL")),
        ("RRCSetupComplete", {}),
        ("RegistrationRequest", dict(suci="suci-001-01-abcdef")),
        ("AuthenticationRequest", dict(direction="DL")),
        ("AuthenticationResponse", {}),
        ("NASSecurityModeCommand", dict(direction="DL", cipher_alg=2, integrity_alg=2)),
        ("NASSecurityModeComplete", {}),
    ]
    for _ in range(pad):
        seq.append(("UECapabilityEnquiry", dict(direction="DL")))
        seq.append(("UECapabilityInformation", {}))
    seq += [
        ("RegistrationAccept", dict(direction="DL", s_tmsi=0xAB00 + session)),
        ("RegistrationComplete", {}),
        ("RRCRelease", dict(direction="DL")),
    ]
    return [
        _rec(t0 + 0.05 * i, msg, session=session, **kw)
        for i, (msg, kw) in enumerate(seq)
    ]


def storm_trace(connections: int = 6, t0: float = 0.0) -> list:
    """An RRC signaling storm: many setups, nothing completes."""
    records: list = []
    for i in range(connections):
        session = 10 + i
        records += [
            _rec(
                t0 + 0.15 * i,
                "RRCSetupRequest",
                session=session,
                establishment_cause="mo-Data",
            ),
            _rec(t0 + 0.15 * i + 0.02, "RRCSetup", session=session, direction="DL"),
        ]
    return records


def null_cipher_trace(session: int = 3, t0: float = 0.0) -> list:
    records = benign_trace(session=session, t0=t0)
    return [
        MobiFlowRecord(
            **{
                **r.to_dict(),
                **(
                    dict(cipher_alg=0, integrity_alg=0)
                    if r.msg == "NASSecurityModeCommand"
                    else {}
                ),
            }
        )
        for r in records
    ]


def identity_exposure_trace(
    session: int = 4, t0: float = 0.0, supi: str = "imsi-001010123456789"
) -> list:
    return [
        r._replace(supi=supi) if r.msg == "RegistrationRequest" else r
        for r in benign_trace(session=session, t0=t0)
    ]


def replay_trace(session: int = 5, t0: float = 0.0, replays: int = 4) -> list:
    """The same S-TMSI re-raised in rapid succession (paging replay)."""
    records: list = []
    for i in range(replays):
        records += [
            _rec(
                t0 + 0.1 * i,
                "RRCSetupRequest",
                session=session,
                s_tmsi=0xBEEF,
                establishment_cause="mt-Access",
            ),
            _rec(t0 + 0.1 * i + 0.02, "RRCSetup", session=session, direction="DL"),
        ]
    return records


def distinct_traces(count: int = 16) -> list:
    """``count`` structurally distinct traces (distinct msg sequences)."""
    base = [
        benign_trace(session=1),
        storm_trace(connections=6),
        null_cipher_trace(session=3),
        identity_exposure_trace(session=4),
        replay_trace(session=5),
    ]
    out = list(base[:count])
    pad = 1
    while len(out) < count:
        # Length-varied benigns and storms round out the set.
        if pad % 2:
            out.append(benign_trace(session=20 + pad, pad=pad))
        else:
            out.append(storm_trace(connections=6 + pad))
        pad += 1
    return out

