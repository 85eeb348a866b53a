"""Stateful property tests of the swap machinery (hypothesis RuleBasedStateMachine).

Random interleavings of store / load / invalidate / switch against a
model of what the frontend *must* guarantee:

* a page is never stored twice nor loaded when absent;
* a load keeps the far copy; only an invalidation (the executor's
  dirtying path) drops it;
* each backend holds exactly the pages the model puts on it, so the
  backends agree with the frontend's owner view;
* switching never loses pages (lazy migration keeps old pages readable).
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.devices import BackendKind, NVMeSSD, RDMANic
from repro.simcore import Simulator
from repro.swap import SwapFrontend, build_backend_module

PAGES = st.integers(min_value=0, max_value=40)
BACKENDS = st.sampled_from(["ssd", "rdma"])


class SwapFrontendMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.fe = SwapFrontend(self.sim, name="stateful")
        for name, (cls, kind) in {
            "ssd": (NVMeSSD, BackendKind.SSD),
            "rdma": (RDMANic, BackendKind.RDMA),
        }.items():
            mod = build_backend_module(self.sim, kind, cls(self.sim))
            mod.name = name
            self.fe.register(mod)
        self.sim.run(until=self.fe.switch_to("ssd"))
        self.model_out: dict[int, str] = {}  # page -> backend (reference model)

    # ---------------------------------------------------------------- rules
    @rule(backend=BACKENDS)
    def switch(self, backend):
        self.sim.run(until=self.fe.switch_to(backend))
        assert self.fe.active_backend == backend

    @rule(page=PAGES)
    def store(self, page):
        if page in self.model_out:
            return  # model: page already in far memory; reclaim won't resend
        self.sim.run(until=self.sim.process(self.fe.store_page(page)))
        self.model_out[page] = self.fe.active_backend

    @rule(page=PAGES)
    def load(self, page):
        if page not in self.model_out:
            return
        owner = self.model_out[page]
        self.sim.run(until=self.sim.process(self.fe.load_page(page)))
        assert self.fe.owner_of(page) == owner  # the far copy stays

    @rule(page=PAGES)
    def invalidate(self, page):
        if page not in self.model_out:
            return
        owner = self.model_out.pop(page)
        self.fe.invalidate_page(page)
        assert not self.fe.module(owner).holds(page)

    # ------------------------------------------------------------ invariants
    @invariant()
    def ownership_matches_backends(self):
        for page, owner in self.model_out.items():
            assert self.fe.swapped_out(page)
            assert self.fe.module(owner).holds(page)

    @invariant()
    def backends_hold_exactly_the_model_pages(self):
        for name in self.fe.backends:
            expected = sum(owner == name for owner in self.model_out.values())
            assert self.fe.module(name).resident_pages == expected

    @invariant()
    def far_page_count_consistent(self):
        assert self.fe.resident_far_pages == len(self.model_out)


TestSwapFrontendStateful = SwapFrontendMachine.TestCase
TestSwapFrontendStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
