"""The benchmark's three GRAM traffic mixes.

Each mix has three parts:

* ``inputs(seed, scale)`` makes everything the seed decides (policy
  texts, the user population, the oracle's view of the policy rules).
  It is not timed.
* ``deploy(inputs, workdir)`` builds the service, parses and compiles
  the policies and enrols every user.  This is what ``setup_s`` times.
* ``stream(inputs, seed)`` yields the steps of one closed-loop client:
  :class:`Submit` and :class:`Manage` requests, :class:`Advance` steps
  of the simulated clock and, on ``monitor_repeat``, :class:`Publish`
  steps of the policy store.

Every request carries the response code it must get.  The code is
derived from the policy texts' rules when the request is built (a
non-member is denied by default, a ``count`` above the local bound is
a local deny, a mirror of a member's grant is a permit, a jobtag admin
cancel is a permit, ...), never by asking the authorization engine.
Jobs are named by a generator-side reference; the runner maps each
reference to the contact the service returned for it.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.model import StatementKind
from repro.core.parser import parse_policy
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.lrm.queues import JobQueue
from repro.rsl.ast import Relop
from repro.workloads.generator import (
    DEFAULT_ORG_PREFIX,
    PolicyShape,
    generate_identity,
    generate_policy,
)
from repro.workloads.scenarios import (
    NFC_LOCAL_POLICY,
    NFC_PREFIX,
    NFC_VO_POLICY,
    build_fusion_scenario,
)

SUCCESS = GramErrorCode.SUCCESS
DENIED = GramErrorCode.AUTHORIZATION_DENIED


class Submit(NamedTuple):
    user: int
    rsl: str
    expect: GramErrorCode
    #: Reference the new job gets when the submit is permitted, else -1.
    job: int


class Manage(NamedTuple):
    user: int
    job: int
    action: str
    value: Optional[int]
    expect: GramErrorCode


class Advance(NamedTuple):
    seconds: float


class Publish(NamedTuple):
    #: Index into the deployment's alternating bundles.
    bundle: int


@dataclass
class Deployment:
    service: GramService
    #: One client per user, indexed like the mix's user list.
    clients: List[GramClient]
    store: Optional[VersionedPolicyStore] = None
    bundles: Tuple[PolicyBundle, ...] = ()


@dataclass
class NfcUsers:
    """The NFC population: (identity, group) per user index."""

    users: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def make(cls, developers: int, analysts: int, admins: int) -> "NfcUsers":
        # Same DN layout and order as build_fusion_scenario's enrolment.
        users = []
        for group, count in (
            ("dev", developers),
            ("analysis", analysts),
            ("admin", admins),
        ):
            for index in range(count):
                identity = f"{NFC_PREFIX}/OU={group}/CN={group.title()} {index:02d}"
                users.append((identity, group))
        return cls(users)

    def indices(self, group: str) -> List[int]:
        return [i for i, (_, g) in enumerate(self.users) if g == group]


class _Job:
    __slots__ = ("ref", "owner", "tag", "born", "slot")

    def __init__(self, ref: int, owner: int, tag: str, born: float) -> None:
        self.ref = ref
        self.owner = owner
        self.tag = tag
        self.born = born
        self.slot = -1


class _LiveSet:
    """Jobs in flight: O(1) add, remove and uniform choice."""

    def __init__(self) -> None:
        self.jobs: List[_Job] = []

    def add(self, job: _Job) -> None:
        job.slot = len(self.jobs)
        self.jobs.append(job)

    def remove(self, job: _Job) -> None:
        last = self.jobs.pop()
        if last is not job:
            self.jobs[job.slot] = last
            last.slot = job.slot
        job.slot = -1

    def __len__(self) -> int:
        return len(self.jobs)


def _pick(rng: random.Random, weights: Tuple[Tuple[str, float], ...]) -> str:
    draw = rng.random()
    for name, weight in weights:
        draw -= weight
        if draw < 0:
            return name
    return weights[-1][0]


# -- nfc_mixed ---------------------------------------------------------------


class NfcMixed:
    """The paper's Fusion Collaboratory deployment, a fresh decision each time.

    Developers, analysts and jobtag admins under the VO and local policy
    of ``build_fusion_scenario``, with sandbox enforcement and neither
    decision cache nor capabilities.  About 20% submits and 80%
    management; about a third of requests are denied.  Every RSL text is
    unique.  Each user keeps at most ``CAP`` jobs in flight and the
    cluster holds fewer CPUs than those jobs ask for, so the LRM keeps a
    steady backlog.  Jobs leave only by a permitted cancel, before any
    runtime or walltime bound could end them, so every management
    request targets a job the oracle knows to be live.
    """

    name = "nfc_mixed"
    #: A deploy takes milliseconds, so many of them steady the median.
    setup_reps = 15
    warmup_requests = 400
    CAP = 4
    ADVANCE_EVERY = 10
    #: Dev jobs declare maxwalltime=600; they are cancelled by their
    #: owner at this age, well before the walltime could fire.
    RETIRE_AGE = 300.0
    MANAGE_WEIGHTS = (
        ("owner_info", 0.26),
        ("owner_signal", 0.10),
        ("owner_cancel", 0.09),
        ("admin_info", 0.12),
        ("admin_cancel", 0.10),
        ("admin_signal", 0.08),
        ("cross_user", 0.17),
        ("suspend", 0.08),
    )

    def inputs(self, seed: int, scale: str) -> NfcUsers:
        return NfcUsers.make(developers=6, analysts=8, admins=2)

    def deploy(self, users: NfcUsers, workdir: str) -> Deployment:
        counts = {g: len(users.indices(g)) for g in ("dev", "analysis", "admin")}
        scenario = build_fusion_scenario(
            developers=counts["dev"],
            analysts=counts["analysis"],
            admins=counts["admin"],
            node_count=8,
            cpus_per_node=4,
            enforcement="sandbox",
        )
        by_identity = scenario.all_clients
        clients = [by_identity[identity] for identity, _ in users.users]
        return Deployment(service=scenario.service, clients=clients)

    def stream(self, users: NfcUsers, seed: int) -> Iterator:
        rng = random.Random(seed)
        groups = [group for _, group in users.users]
        admins = users.indices("admin")
        non_admins = [i for i, g in enumerate(groups) if g != "admin"]
        inflight: Dict[int, int] = {i: 0 for i in range(len(groups))}
        live = _LiveSet()
        dev_jobs: deque = deque()
        now = 0.0
        seq = 0
        next_ref = 0

        def retire(job: _Job) -> None:
            live.remove(job)
            inflight[job.owner] -= 1

        while True:
            if seq and seq % self.ADVANCE_EVERY == 0:
                now += 1.0
                yield Advance(1.0)
            seq += 1

            while dev_jobs and dev_jobs[0].slot < 0:
                dev_jobs.popleft()
            if dev_jobs and now - dev_jobs[0].born >= self.RETIRE_AGE:
                job = dev_jobs.popleft()
                retire(job)
                yield Manage(job.owner, job.ref, "cancel", None, SUCCESS)
                continue

            if rng.random() < 0.2 or not live:
                # Free slots refill at once, so the jobs in flight stay
                # pinned near users x CAP instead of drifting.
                free = [u for u in inflight if inflight[u] < self.CAP]
                if free and rng.random() < 0.85:
                    user = rng.choice(free)
                    group = groups[user]
                    rsl, tag = _nfc_permitted(rng, group, seq)
                    job = _Job(next_ref, user, tag, now)
                    next_ref += 1
                    live.add(job)
                    inflight[user] += 1
                    if group == "dev":
                        dev_jobs.append(job)
                    yield Submit(user, rsl, SUCCESS, job.ref)
                else:
                    user = rng.randrange(len(groups))
                    yield Submit(user, _nfc_denied(rng, groups[user], seq), DENIED, -1)
                continue

            kind = _pick(rng, self.MANAGE_WEIGHTS)
            job = rng.choice(live.jobs)
            owner_group = groups[job.owner]
            if kind == "owner_info":
                yield Manage(job.owner, job.ref, "information", None, SUCCESS)
            elif kind == "owner_signal":
                # Analysts may signal their own jobs, admins their own
                # URGENT jobs; developers hold no signal grant.
                expect = DENIED if owner_group == "dev" else SUCCESS
                yield Manage(job.owner, job.ref, "signal", 5, expect)
            elif kind == "owner_cancel":
                retire(job)
                yield Manage(job.owner, job.ref, "cancel", None, SUCCESS)
            elif kind == "admin_info":
                # Every VO job carries a jobtag (a start requirement).
                yield Manage(rng.choice(admins), job.ref, "information", None, SUCCESS)
            elif kind == "admin_cancel":
                if job.tag == "DEV":
                    yield Manage(rng.choice(admins), job.ref, "cancel", None, DENIED)
                else:
                    retire(job)
                    yield Manage(rng.choice(admins), job.ref, "cancel", None, SUCCESS)
            elif kind == "admin_signal":
                expect = DENIED if job.tag == "DEV" else SUCCESS
                yield Manage(rng.choice(admins), job.ref, "signal", 5, expect)
            elif kind == "cross_user":
                # Non-admin grants are all jobowner=self.
                requester = rng.choice(non_admins)
                if requester == job.owner:
                    requester = non_admins[(non_admins.index(requester) + 1) % len(non_admins)]
                action = rng.choice(("information", "cancel", "signal"))
                value = 5 if action == "signal" else None
                yield Manage(requester, job.ref, action, value, DENIED)
            else:
                # Only admins hold suspend, and only for NFC jobs; the
                # jobs admins own themselves are URGENT.
                yield Manage(job.owner, job.ref, "suspend", None, DENIED)


def _nfc_permitted(rng: random.Random, group: str, seq: int) -> Tuple[str, str]:
    if group == "dev":
        return (
            f"&(executable=devtool{rng.randrange(5)})(directory=/sandbox/dev)"
            f"(count=1)(maxwalltime=600)(runtime=100000)(jobtag=DEV)"
            f"(arguments=r{seq})",
            "DEV",
        )
    if group == "analysis":
        count = rng.choice((1, 2, 4, 8))
        return (
            f"&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)"
            f"(count={count})(runtime=1000000)(arguments=r{seq})",
            "NFC",
        )
    count = rng.choice((1, 2, 4))
    return (
        f"&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=URGENT)"
        f"(count={count})(runtime=1000000)(arguments=r{seq})",
        "URGENT",
    )


def _nfc_denied(rng: random.Random, group: str, seq: int) -> str:
    variant = rng.randrange(4)
    if group == "dev":
        return (
            # VO: count<2 / maxwalltime<=600 / directory / jobtag!=NULL.
            "&(executable=devtool1)(directory=/sandbox/dev)(count=2)(maxwalltime=600)(jobtag=DEV)",
            "&(executable=devtool1)(directory=/sandbox/dev)(count=1)(maxwalltime=1200)(jobtag=DEV)",
            "&(executable=devtool1)(directory=/tmp/dev)(count=1)(maxwalltime=600)(jobtag=DEV)",
            "&(executable=devtool1)(directory=/sandbox/dev)(count=1)(maxwalltime=600)",
        )[variant] + f"(arguments=r{seq})"
    if group == "analysis":
        return (
            # VO: executable / count<=16 / jobtag; local: queue!=reserved.
            "&(executable=gyro)(directory=/opt/nfc/bin)(jobtag=NFC)(count=2)",
            "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)(count=24)",
            "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=ADS)(count=2)",
            "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)(count=2)(queue=reserved)",
        )[variant] + f"(arguments=r{seq})"
    return (
        # VO and local: count<=32; VO: admin starts are URGENT only;
        # local: queue!=reserved.
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=URGENT)(count=40)",
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)(count=2)",
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=URGENT)(count=2)(queue=reserved)",
        "&(executable=TRANSP)(directory=/tmp)(jobtag=URGENT)(count=2)",
    )[variant] + f"(arguments=r{seq})"


# -- vo_scale ------------------------------------------------------------------

#: Grid-mapped users outside the VO: no VO statement names them.
GUEST_PREFIX = "/O=Grid/O=Globus/OU=guest.example.org"

#: Owner management, added to the generated VO policy.
VO_OWNER_MANAGEMENT = f"""
{DEFAULT_ORG_PREFIX}:
    &(action = information)(jobowner = self)
    &(action = cancel)(jobowner = self)
"""

#: The site's envelope over the VO.
VO_LOCAL_POLICY = f"""
{DEFAULT_ORG_PREFIX}:
    &(action = start)(count<=16)
    &(action = information)
    &(action = cancel)
"""

VO_LOCAL_COUNT_BOUND = 16


@dataclass
class VoInputs:
    vo_text: str
    members: List[str]
    guests: List[str]
    #: identity -> the relations of each of its grant assertions, as
    #: (attribute, op, first value) without the action relation.
    grants: Dict[str, List[Tuple[Tuple[str, Relop, str], ...]]]

    @property
    def users(self) -> List[str]:
        return self.members + self.guests


class VoScale:
    """A generated VO of thousands of members, no repeats, no cache.

    ``repro.workloads.generator`` writes one grant statement per member;
    the site adds a local policy, owners get information and cancel with
    ``jobowner=self``, and ``query_fast_deny`` is on.  A fifth of the
    requesters are grid-mapped guests outside the VO (guaranteed
    denies).  Most requests are submits: mirrors of a member's grant
    (permits), starts without a jobtag (VO requirement denies) and
    starts above the local ``count`` bound (local denies).  Requesters
    are drawn uniformly from the whole population.
    """

    name = "vo_scale"
    setup_reps = 3
    warmup_requests = 300
    ADVANCE_EVERY = 50
    RECENT_JOBS = 200

    def inputs(self, seed: int, scale: str) -> VoInputs:
        members = 4000 if scale == "full" else 150
        shape = PolicyShape(
            users=members,
            statements_per_user=1,
            assertions_per_statement=2,
            relations_per_assertion=3,
            group_requirements=1,
            seed=seed,
        )
        policy = generate_policy(shape, name="vo")
        grants: Dict[str, list] = {}
        for statement in policy.statements:
            if statement.kind is not StatementKind.GRANT:
                continue
            rules = grants.setdefault(statement.subject.pattern, [])
            for assertion in statement.assertions:
                rules.append(
                    tuple(
                        (r.attribute, r.op, str(r.values[0]))
                        for r in assertion.spec
                        if r.attribute != "action"
                    )
                )
        return VoInputs(
            vo_text=str(policy) + "\n" + VO_OWNER_MANAGEMENT,
            members=[generate_identity(i) for i in range(members)],
            guests=[
                f"{GUEST_PREFIX}/CN=Guest {i:05d}" for i in range(members // 4)
            ],
            grants=grants,
        )

    def deploy(self, inputs: VoInputs, workdir: str) -> Deployment:
        service = GramService(
            ServiceConfig(
                host="vo.example.org",
                node_count=128,
                cpus_per_node=8,
                policies=(
                    parse_policy(inputs.vo_text, name="vo"),
                    parse_policy(VO_LOCAL_POLICY, name="site-local"),
                ),
                enforcement=None,
                query_fast_deny=True,
            )
        )
        clients = []
        for index, identity in enumerate(inputs.users):
            credential = service.add_user(identity, f"u{index:05d}")
            clients.append(GramClient(credential, service.gatekeeper))
        return Deployment(service=service, clients=clients)

    def stream(self, inputs: VoInputs, seed: int) -> Iterator:
        rng = random.Random(seed)
        members = len(inputs.members)
        population = members + len(inputs.guests)
        grants = [inputs.grants[identity] for identity in inputs.members]
        recent: deque = deque(maxlen=self.RECENT_JOBS)
        seq = 0
        next_ref = 0
        while True:
            if seq and seq % self.ADVANCE_EVERY == 0:
                yield Advance(1.0)
            seq += 1
            if recent and rng.random() < 0.2:
                ref, owner = recent[rng.randrange(len(recent))]
                action = rng.choice(("information", "cancel"))
                if rng.random() < 0.6:
                    # Jobs finish and are reaped, but the recent window
                    # stays well inside the completed-job retention, so
                    # both actions answer SUCCESS live or reaped.
                    yield Manage(owner, ref, action, None, SUCCESS)
                else:
                    other = rng.randrange(population - 1)
                    other += other >= owner
                    yield Manage(other, ref, action, None, DENIED)
                continue
            user = rng.randrange(population)
            if user >= members:
                rsl = (
                    f"&(executable=gyro)(directory=/sandbox/apps)(jobtag=NFC)"
                    f"(count=1)(runtime=2)(arguments=r{seq})"
                )
                yield Submit(user, rsl, DENIED, -1)
                continue
            rules = rng.choice(grants[user])
            draw = rng.random()
            if draw < 0.70:
                yield Submit(user, _mirror(rng, rules, seq), SUCCESS, next_ref)
                recent.append((next_ref, user))
                next_ref += 1
            elif draw < 0.85:
                # The VO requires (jobtag != NULL) on every start.
                yield Submit(user, _mirror(rng, rules, seq, jobtag=False), DENIED, -1)
            else:
                count = 4 * VO_LOCAL_COUNT_BOUND
                yield Submit(user, _mirror(rng, rules, seq, count=count), DENIED, -1)


_MIRROR_JOBTAGS = ("NFC", "ADS", "DEMO", "URGENT", "DEBUG")


def _mirror(
    rng: random.Random,
    rules: Tuple[Tuple[str, Relop, str], ...],
    seq: int,
    jobtag: bool = True,
    count: Optional[int] = None,
) -> str:
    """RSL satisfying one grant assertion (optionally broken on purpose)."""
    values: Dict[str, str] = {}
    for attribute, op, value in rules:
        if op is Relop.EQ:
            values[attribute] = value
        elif op is Relop.NEQ:
            values[attribute] = rng.choice(_MIRROR_JOBTAGS)
        elif op is Relop.LT:
            values[attribute] = str(max(1, int(float(value)) - 1))
        elif op is Relop.LTE:
            values[attribute] = str(int(float(value)))
        elif op is Relop.GT:
            values[attribute] = str(int(float(value)) + 1)
        else:
            values[attribute] = str(int(float(value)))
    values.setdefault("executable", "gyro")
    values.setdefault("count", "1")
    values.setdefault("jobtag", rng.choice(_MIRROR_JOBTAGS))
    if not jobtag:
        del values["jobtag"]
    if count is not None:
        values["count"] = str(count)
    values["runtime"] = "2"
    values["arguments"] = f"r{seq}"
    return "&" + "".join(f"({k}={v})" for k, v in values.items())


# -- monitor_repeat ------------------------------------------------------------

#: A second VO policy revision that decides every NFC request exactly
#: like the first: its extra statement names a DN outside the VO.
NFC_VO_POLICY_B = (
    NFC_VO_POLICY
    + """
# Revision B: a visiting auditor outside the NFC tree.
/O=Grid/O=Elsewhere/CN=Visiting Auditor:
    &(action = information)(jobowner = self)
"""
)


class MonitorRepeat:
    """The fast-path deployment polled over and over.

    NFC policies with the decision cache, capability grants, a
    ``VersionedPolicyStore`` with an on-disk log and a completed-job
    spill.  A fixed pool of long-running jobs is polled by owners and
    jobtag admins; about 90% of requests are management, mostly
    ``information``.  Submits reuse a few RSL templates; their short
    jobs finish, are reaped into the spilled completed-job store and
    are still polled there.  Every ``PUBLISH_EVERY`` requests a bundle
    is published, alternating between two revisions that decide alike.
    """

    name = "monitor_repeat"
    #: A deploy takes milliseconds, so many of them steady the median.
    setup_reps = 15
    warmup_requests = 400
    ADVANCE_EVERY = 20
    PUBLISH_EVERY = 800
    POOL_PER_ANALYST = 2
    RECENT_SHORT = 20
    MANAGE_WEIGHTS = (
        ("owner_info", 0.50),
        ("admin_info", 0.20),
        ("owner_signal", 0.05),
        ("admin_signal", 0.03),
        ("cross_info", 0.07),
        ("short_info", 0.10),
        ("short_cancel", 0.05),
    )

    def inputs(self, seed: int, scale: str) -> NfcUsers:
        return NfcUsers.make(developers=4, analysts=8, admins=2)

    def deploy(self, users: NfcUsers, workdir: str) -> Deployment:
        os.makedirs(workdir, exist_ok=True)
        for stale in ("policy-log.jsonl", "completed.jsonl"):
            path = os.path.join(workdir, stale)
            if os.path.exists(path):
                os.remove(path)
        store = VersionedPolicyStore(log_path=os.path.join(workdir, "policy-log.jsonl"))
        service = GramService(
            ServiceConfig(
                host="fusion.example.org",
                node_count=24,
                cpus_per_node=4,
                queues=(
                    JobQueue(name="default"),
                    JobQueue(name="reserved", priority=100),
                ),
                policies=(
                    parse_policy(NFC_VO_POLICY, name="nfc-vo"),
                    parse_policy(NFC_LOCAL_POLICY, name="site-local"),
                ),
                enforcement="static",
                decision_cache=True,
                capability_grants=True,
                policy_store=store,
                spill_path=os.path.join(workdir, "completed.jsonl"),
                completed_retention=128,
            )
        )
        clients = []
        for identity, group in users.users:
            account = "nfc" + identity.rsplit("=", 1)[1].lower().replace(" ", "")
            credential = service.add_user(identity, account)
            clients.append(GramClient(credential, service.gatekeeper))
        bundles = tuple(
            PolicyBundle.from_texts({"nfc-vo": vo, "site-local": NFC_LOCAL_POLICY})
            for vo in (NFC_VO_POLICY, NFC_VO_POLICY_B)
        )
        return Deployment(service=service, clients=clients, store=store, bundles=bundles)

    def stream(self, users: NfcUsers, seed: int) -> Iterator:
        rng = random.Random(seed)
        groups = [group for _, group in users.users]
        analysts = users.indices("analysis")
        admins = users.indices("admin")
        devs = users.indices("dev")
        pool: List[_Job] = []
        next_ref = 0
        for owner in analysts + admins:
            per_owner = self.POOL_PER_ANALYST if groups[owner] == "analysis" else 1
            tag = "NFC" if groups[owner] == "analysis" else "URGENT"
            for copy in range(per_owner):
                rsl = (
                    f"&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag={tag})"
                    f"(count=1)(runtime=1000000000)(arguments=pool{copy})"
                )
                pool.append(_Job(next_ref, owner, tag, 0.0))
                yield Submit(owner, rsl, SUCCESS, next_ref)
                next_ref += 1
        recent: deque = deque(maxlen=self.RECENT_SHORT)
        seq = 0
        published = 0
        while True:
            if seq and seq % self.ADVANCE_EVERY == 0:
                yield Advance(1.0)
            if seq and seq % self.PUBLISH_EVERY == 0:
                yield Publish(published % 2)
                published += 1
            seq += 1
            if rng.random() < 0.1:
                user = rng.randrange(len(groups))
                permitted = rng.random() < 0.6
                rsl = _MONITOR_TEMPLATES[groups[user]][0 if permitted else 1]
                if permitted:
                    recent.append((next_ref, user))
                    yield Submit(user, rsl, SUCCESS, next_ref)
                    next_ref += 1
                else:
                    yield Submit(user, rsl, DENIED, -1)
                continue
            kind = _pick(rng, self.MANAGE_WEIGHTS)
            if kind in ("short_info", "short_cancel") and recent:
                # Finished short jobs answer from the completed-job
                # store; the recent window is far inside its retention.
                ref, owner = recent[rng.randrange(len(recent))]
                action = "information" if kind == "short_info" else "cancel"
                yield Manage(owner, ref, action, None, SUCCESS)
                continue
            job = rng.choice(pool)
            if kind == "admin_info":
                yield Manage(rng.choice(admins), job.ref, "information", None, SUCCESS)
            elif kind == "owner_signal":
                yield Manage(job.owner, job.ref, "signal", 5, SUCCESS)
            elif kind == "admin_signal":
                # Admins may signal NFC and URGENT jobs.
                yield Manage(rng.choice(admins), job.ref, "signal", 5, SUCCESS)
            elif kind == "cross_info":
                # Developers may only read their own jobs.
                yield Manage(rng.choice(devs), job.ref, "information", None, DENIED)
            else:
                yield Manage(job.owner, job.ref, "information", None, SUCCESS)


_MONITOR_TEMPLATES = {
    # (permitted, denied) per group; the same text over and over.
    "dev": (
        "&(executable=devtool0)(directory=/sandbox/dev)(count=1)"
        "(maxwalltime=600)(runtime=20)(jobtag=DEV)",
        "&(executable=devtool0)(directory=/sandbox/dev)(count=4)"
        "(maxwalltime=600)(runtime=20)(jobtag=DEV)",
    ),
    "analysis": (
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)(count=1)(runtime=20)",
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)(count=1)"
        "(runtime=20)(queue=reserved)",
    ),
    "admin": (
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=URGENT)(count=1)(runtime=20)",
        "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=URGENT)(count=40)(runtime=20)",
    ),
}

MIXES = {mix.name: mix for mix in (NfcMixed(), VoScale(), MonitorRepeat())}
