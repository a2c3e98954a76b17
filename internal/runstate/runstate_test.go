package runstate

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// fullSnapshot builds a snapshot exercising every optional section and
// every frontier variant the codec knows.
func fullSnapshot() *Snapshot {
	set := func(bits ...int) bitset.Set {
		s := bitset.New(8)
		for _, b := range bits {
			s.Add(b)
		}
		return s
	}
	return &Snapshot{
		Version: 1,
		Fingerprint: Fingerprint{
			Version: 1, Algorithm: "tane", Rows: 120, Cols: 8,
			DataHash: 0xdeadbeefcafe, TopK: 5, MaxViolations: 2,
		},
		Stats: StatsSnap{
			Version: 1, ElapsedNanos: 123456789,
			Phases:    []PhaseRec{{Name: "setup", Nanos: 11}, {Name: "level-3", Nanos: 22}},
			CacheHits: 7, CacheMisses: 3, CacheEvicts: 1,
		},
		Tree: &TreeSnap{Version: 1, NumAttrs: 8, ControlledLevel: 2, Nodes: []TreeNodeRec{
			{LHS: set(0, 2), RHS: set(4), Pruned: false},
			{LHS: set(1), RHS: set(3, 5), Pruned: true},
		}},
		NonFDs: &NonFDSnap{Version: 1, NumAttrs: 8, Sets: []bitset.Set{set(0, 1), set(2, 6, 7)}},
		TopK: &TopKSnap{Version: 1, K: 5, Entries: []EntryRec{
			{LHS: set(0), RHS: set(1), Score: 42},
		}, Admitted: 9, Rejected: 4, Pruned: 2},
		Manifest: ManifestSnap{Version: 1, Keys: []bitset.Set{set(0), set(1, 2)}},
		Frontier: FrontierSnap{
			Version: 1,
			Tane: &TaneFrontier{
				Version: 1, Levels: 3, Out: nil,
				Cands:       []TaneCandRec{{Set: set(0, 1), CPlus: set(0, 1, 2), Err: 5, Dead: false}},
				Prev:        []TanePrevRec{{Set: set(0), Err: 9}},
				RowsScanned: 1000, PartitionsBuilt: 12, PartitionsRefined: 4,
				CandidatesValidated: 40, Invalidated: 11,
			},
			Level: &LevelFrontier{Version: 1, Level: 2, NumFDs: 17, Validations: 30,
				Sampler: []SamplerRec{{Distance: 1, Efficiency: 0.5, Exhausted: false}}},
			DFD:     &DFDFrontier{Version: 1, NextAttr: 3, Validations: 8, PartitionsBuilt: 6},
			FastFDs: &FastFDsFrontier{Version: 1, NextAttr: 2, Diff: []bitset.Set{set(3, 4)}, RowsScanned: 99, NonFDs: 5},
		},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	want := fullSnapshot()
	data := encodeFile(nil, want)
	got, err := decodeFile(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	data := encodeFile(nil, fullSnapshot())

	t.Run("empty", func(t *testing.T) {
		if _, err := decodeFile(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := decodeFile(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		// Every single-byte payload flip must be caught by the CRC.
		for i := len(data) / 2; i < len(data)/2+8 && i < len(data)-4; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			if _, err := decodeFile(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: got %v, want ErrCorrupt", i, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 4, len(data) / 2, len(data) - 1} {
			if _, err := decodeFile(data[:len(data)-cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: got %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), data...), 0xaa)
		if _, err := decodeFile(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("container-version-skew", func(t *testing.T) {
		// The container version is checked before the CRC, so a flipped
		// version byte must surface as ErrVersion, not ErrCorrupt.
		bad := append([]byte(nil), data...)
		bad[4] = 0x7f // little-endian u16 after the 4-byte magic
		if _, err := decodeFile(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
}

func TestDecodeSectionVersionSkew(t *testing.T) {
	s := fullSnapshot()
	s.Stats.Version = 99
	data := encodeFile(nil, s)
	if _, err := decodeFile(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

func TestLoadNeverPanicsOnFuzzedBytes(t *testing.T) {
	dir := t.TempDir()
	data := encodeFile(nil, fullSnapshot())
	// Deterministic byte-flips across the file; none may panic.
	for i := 0; i < len(data); i += 3 {
		bad := append([]byte(nil), data...)
		bad[i] ^= byte(0x11 + i%200)
		if err := os.WriteFile(Path(dir), bad, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := Load(dir)
		if err == nil {
			// A flip that keeps the CRC valid would have to collide; a
			// successful decode must at least produce a snapshot.
			if s == nil {
				t.Fatalf("flip at %d: nil snapshot without error", i)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
}

func TestCheckpointerIntervalAndFlush(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewCheckpointer(dir, time.Hour, fullSnapshot().Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	s := fullSnapshot()
	if err := cp.Tick(s); err != nil {
		t.Fatalf("first tick: %v", err)
	}
	if got := cp.Saves(); got != 1 {
		t.Fatalf("first tick wrote %d files, want 1", got)
	}
	// Within the interval later ticks encode but do not write.
	s.Stats.CacheHits = 1000
	if err := cp.Tick(s); err != nil {
		t.Fatalf("second tick: %v", err)
	}
	if got := cp.Saves(); got != 1 {
		t.Fatalf("tick inside interval wrote; saves = %d, want 1", got)
	}
	// Flush persists the pending boundary.
	if err := cp.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := cp.Saves(); got != 2 {
		t.Fatalf("flush wrote %d files, want 2", got)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats.CacheHits != 1000 {
		t.Fatalf("flush persisted stale boundary: CacheHits = %d, want 1000", loaded.Stats.CacheHits)
	}
	// A second Flush with nothing pending is a no-op.
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cp.Saves(); got != 2 {
		t.Fatalf("idle flush wrote; saves = %d, want 2", got)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(Path(dir)) {
		t.Fatalf("directory not clean: %v", entries)
	}
}

// TestLoadRejectsInconsistentSections: a snapshot whose checksum holds
// but whose sections contradict its fingerprint fails Load with
// ErrCorrupt. The FD-tree and non-FD cases run end to end in
// internal/integration; these are the sections only Load inspects.
func TestLoadRejectsInconsistentSections(t *testing.T) {
	past := bitset.New(70)
	past.Add(69)
	cases := map[string]func(s *Snapshot){
		"topk-attr":     func(s *Snapshot) { s.TopK.Entries[0].RHS = past },
		"manifest-attr": func(s *Snapshot) { s.Manifest.Keys[1] = past },
		"nonfd-attr":    func(s *Snapshot) { s.NonFDs.Sets[0] = past },
		"trivial-rhs":   func(s *Snapshot) { s.Tree.Nodes[0].RHS.Add(0) },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			s := fullSnapshot()
			edit(s)
			dir := t.TempDir()
			cp, err := NewCheckpointer(dir, 0, s.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.Tick(s); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestCheckpointerStampsFingerprint(t *testing.T) {
	dir := t.TempDir()
	fp := Fingerprint{Version: 1, Algorithm: "dfd", Rows: 10, Cols: 3, DataHash: 77}
	cp, err := NewCheckpointer(dir, 0, fp)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{
		Stats:    StatsSnap{Version: 1},
		Manifest: ManifestSnap{Version: 1},
		Frontier: FrontierSnap{Version: 1},
	}
	if err := cp.Tick(s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint != fp {
		t.Fatalf("fingerprint not stamped: got %+v, want %+v", loaded.Fingerprint, fp)
	}
}

func TestNilCheckpointerIsNoOp(t *testing.T) {
	var cp *Checkpointer
	if err := cp.Tick(fullSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if cp.Saves() != 0 {
		t.Fatal("nil checkpointer reported saves")
	}
}

func TestFingerprintMatch(t *testing.T) {
	rel := testRelation()
	base := FingerprintOf(rel, "tane", 5, 0)
	if err := base.Match(base); err != nil {
		t.Fatalf("self match: %v", err)
	}
	for name, other := range map[string]Fingerprint{
		"algorithm": FingerprintOf(rel, "dfd", 5, 0),
		"topk":      FingerprintOf(rel, "tane", 6, 0),
		"max-viol":  FingerprintOf(rel, "tane", 5, 3),
	} {
		if err := other.Match(base); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: got %v, want ErrMismatch", name, err)
		}
	}
	// Different data, same shape.
	cols := [][]int32{{0, 1, 2, 0}, {1, 1, 0, 0}}
	other := relation.FromCodes([]string{"a", "b"}, cols, nil, relation.NullEqNull)
	if err := FingerprintOf(other, "tane", 5, 0).Match(base); !errors.Is(err, ErrMismatch) {
		t.Error("different data matched")
	}
}

func testRelation() *relation.Relation {
	cols := [][]int32{{0, 1, 2, 3}, {1, 1, 0, 0}}
	return relation.FromCodes([]string{"a", "b"}, cols, nil, relation.NullEqNull)
}
