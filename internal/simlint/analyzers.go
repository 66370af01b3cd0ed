package simlint

// EnginePackages are the simulation-engine packages that must stay
// panic-free: every failure is reported through sentinel errors
// (memsim.ErrPageCross, trace.ErrBadMagic, trace.ErrCorruptRecord,
// ...) so a bad configuration or trace can never take down a sweep
// worker. The meta-test in scope_test.go pins each entry to an existing
// package so a rename cannot silently shrink coverage.
var EnginePackages = []string{
	"internal/cache",
	"internal/memsim",
	"internal/hierarchy",
	"internal/writebuffer",
	"internal/writecache",
	"internal/bus",
	"internal/timing",
	// burst, reuse and faults run inside experiments.fanOut workers.
	"internal/burst",
	"internal/reuse",
	"internal/faults",
	"internal/sweep",
	"internal/coherence",
	"internal/serve", // a panic in the service would take down every tenant
	"internal/vfs",   // fault injection must report errors, never abort the host
}

// DeterministicPackages produce results (figures, tables, campaign
// reports, checkpoint journals) that must be byte-identical across
// runs and resumes; nothing order-, time- or globally-random-dependent
// may reach their output.
var DeterministicPackages = []string{
	"internal/sweep",
	"internal/experiments",
	"internal/campaign",
	"internal/stats",
	"internal/coherence", // snoop order and stats must not depend on map order
	"internal/serve",     // resumed jobs must report byte-identical results
	"internal/vfs",       // fault plans must replay identically from their seed
}

// DurabilityPackages own a durability surface (journals, trace cache,
// job state) and must reach the filesystem only through an injected
// vfs.FS, so the fault-injection harness and crash-consistency proofs
// cover every write they make. internal/vfs itself is excluded: its OS
// passthrough is the sanctioned home for the real os.* calls.
var DurabilityPackages = []string{
	"internal/resilience",
	"internal/workload",
	"internal/serve",
}

// LockedPackages coordinate goroutines with sync.Mutex/RWMutex and are
// checked by lockheld: no blocking operation inside a critical section,
// and one lock acquisition order per package.
var LockedPackages = []string{
	"internal/serve",
	"internal/sweep",
	"internal/workload",
	"internal/resilience",
	"internal/experiments", // the Env memos and the coherence worker pool
}

// StatsPackages publish counters (serve statusz metrics, the workload
// trace cache's store-degraded count, coherence traffic Stats) whose
// accounting must be sound: every counter both bumped somewhere in the
// module and read by an exported snapshot/Stats/statusz emitter.
var StatsPackages = []string{
	"internal/serve",
	"internal/workload",
	"internal/coherence",
}

// WorkerLoopPackages host long-running worker loops that must honor
// the pulseStride cancellation contract: every iteration observes the
// context (or an equivalent done channel) so cancellation lands
// mid-unit, not only between units.
var WorkerLoopPackages = []string{
	"internal/sweep",
	"internal/campaign",
	"internal/resilience",
	"internal/coherence", // multi-core replay loops run long enough to need ctx
	"internal/serve",     // job workers and the drain loop must observe ctx
}

// All returns every simlint analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoPanic,
		Hotpath,
		SentinelErr,
		Determinism,
		CtxLoop,
		VFSOnly,
		LockHeld,
		ErrFlow,
		StatSound,
		DeadCode,
	}
}
