package timing

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// Store-pipeline tests (§3/Fig 3–4): the Org dimension of the model.

func wtCfg() cache.Config {
	return cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteThrough, WriteMiss: cache.FetchOnWrite}
}

func wbCfg() cache.Config {
	return cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

// orgCfg pairs an organization with the L1 it runs on.
func orgCfg(org Organization) Config {
	if org == DirectMappedWriteThrough {
		return Config{L1: wtCfg(), Org: org}
	}
	return Config{L1: wbCfg(), Org: org}
}

func TestOrganizationStrings(t *testing.T) {
	for _, o := range Organizations() {
		if o.String() == "" {
			t.Errorf("organization %d has no name", o)
		}
	}
	if Organization(9).String() == "" {
		t.Error("unknown organization should still render")
	}
}

// TestValidateStorePipeline: the store-pipeline fields are checked
// alongside the rest of Config.
func TestValidateStorePipeline(t *testing.T) {
	good := orgCfg(SimpleWriteBack)
	good.FetchLatency = 10
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for _, tc := range []struct {
		what string
		edit func(*Config)
	}{
		{"unknown organization", func(c *Config) { c.Org = Organization(9) }},
		{"set-associative concurrent write", func(c *Config) {
			c.Org = DirectMappedWriteThrough
			c.L1.Assoc = 2
		}},
	} {
		cfg := good
		tc.edit(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s accepted", tc.what)
		}
	}
	if _, err := Evaluate(Config{L1: wbCfg(), Org: Organization(9)}, &trace.Trace{}); err == nil {
		t.Error("Evaluate accepted a bad organization")
	}
}

// TestStoreLoadInterlock: a load in the very next instruction after a
// store stalls once on SimpleWriteBack, never on the other two.
func TestStoreLoadInterlock(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		rd(0x100, 0), // prime the line
		wr(0x100, 0),
		rd(0x104, 0), // back-to-back load after store
	}}
	for _, org := range append(Organizations(), 0) {
		s, err := Evaluate(orgCfg(org), tr)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if org == SimpleWriteBack {
			want = 1
		}
		if s.InterlockStalls != want {
			t.Errorf("%s: interlocks = %d, want %d", org, s.InterlockStalls, want)
		}
		if s.Cycles != s.Instructions+s.InterlockStalls {
			t.Errorf("%s: cycles = %d, want instructions %d + interlocks %d",
				org, s.Cycles, s.Instructions, s.InterlockStalls)
		}
	}
}

// TestGapBreaksInterlock: any intervening non-memory instruction clears
// the hazard.
func TestGapBreaksInterlock(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		rd(0x100, 0),
		wr(0x100, 0),
		rd(0x104, 1), // one ALU op between store and load
	}}
	s, err := Evaluate(orgCfg(SimpleWriteBack), tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.InterlockStalls != 0 {
		t.Errorf("interlocks = %d despite a gap", s.InterlockStalls)
	}
}

// TestDelayedWriteDrain: a read miss right after a store forces a
// one-cycle drain of the delayed-write register.
func TestDelayedWriteDrain(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		rd(0x100, 0),
		wr(0x100, 0),
		rd(0x4000, 0), // miss: refill must wait for drain
	}}
	cfg := orgCfg(DelayedWriteBack)
	cfg.FetchLatency = 10
	s, err := Evaluate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.DrainStalls != 1 {
		t.Errorf("drain stalls = %d, want 1", s.DrainStalls)
	}
	if s.ReadMissStalls != 20 { // two read misses x 10
		t.Errorf("miss stalls = %d, want 20", s.ReadMissStalls)
	}
}

// TestDelayedWriteNoDrainOnHit: read hits proceed without draining.
func TestDelayedWriteNoDrainOnHit(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		rd(0x100, 0),
		wr(0x100, 0),
		rd(0x104, 0), // hit
	}}
	s, err := Evaluate(orgCfg(DelayedWriteBack), tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.DrainStalls != 0 {
		t.Errorf("drain stalls = %d on a read hit", s.DrainStalls)
	}
}

func TestCPIAndStoreCost(t *testing.T) {
	var s Stats
	if s.StoreCost() != 0 {
		t.Error("zero stats must not divide by zero")
	}
	s = Stats{Instructions: 100, Cycles: 120, InterlockStalls: 5,
		Cache: cache.Stats{Writes: 10}}
	if got := s.CPI(); got != 1.2 {
		t.Errorf("CPI = %v, want 1.2", got)
	}
	if got := s.StoreCost(); got != 0.5 {
		t.Errorf("StoreCost = %v, want 0.5", got)
	}
}

func TestWriteBufferStallsOnlyForWriteThrough(t *testing.T) {
	// A long, dense store burst into a slow write buffer.
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(wr(uint32(i*64), 0))
	}
	slow := func(cfg Config) Config {
		cfg.WriteBufferEntries, cfg.WriteRetire = 2, 40
		return cfg
	}
	wt, err := Evaluate(slow(orgCfg(DirectMappedWriteThrough)), tr)
	if err != nil {
		t.Fatal(err)
	}
	if wt.WriteBufferStalls == 0 {
		t.Error("write-through organization recorded no write-buffer stalls")
	}
	if wt.Cycles != wt.Instructions+wt.WriteMissStalls+wt.WriteBufferStalls {
		t.Errorf("write-buffer stalls missing from cycles: %+v", wt)
	}
	wb, err := Evaluate(slow(orgCfg(SimpleWriteBack)), tr)
	if err != nil {
		t.Fatal(err)
	}
	if wb.WriteBufferStalls != 0 {
		t.Error("write-back organization charged write-buffer stalls")
	}
}

// TestOrganizationOrdering: on a store-dense trace, the one-cycle-store
// organizations must not have higher store cost than SimpleWriteBack.
func TestOrganizationOrdering(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 2000; i++ {
		a := uint32((i % 61) * 8)
		tr.Append(wr(a, 0))
		tr.Append(rd(a, 0))
	}
	cost := map[Organization]float64{}
	for _, org := range Organizations() {
		s, err := Evaluate(orgCfg(org), tr)
		if err != nil {
			t.Fatal(err)
		}
		cost[org] = s.StoreCost()
	}
	if cost[DirectMappedWriteThrough] != 0 {
		t.Errorf("WT store cost = %v, want 0", cost[DirectMappedWriteThrough])
	}
	if cost[SimpleWriteBack] <= cost[DelayedWriteBack] {
		t.Errorf("delayed write register did not help: simple=%v delayed=%v",
			cost[SimpleWriteBack], cost[DelayedWriteBack])
	}
}
