package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wlcache/internal/runner"
	"wlcache/internal/sim"
)

// journalRec is one record for writeJournal.
type journalRec struct {
	addr, fp string
	res      sim.Result
}

// rec builds a record whose address matches its fingerprint.
func rec(engine, fp string, res sim.Result) journalRec {
	return journalRec{addr: runner.Address(engine, fp), fp: fp, res: res}
}

// writeJournal writes a wlrun/v1 journal through the runner's own
// append path, then appends raw (possibly damaged) bytes after it.
func writeJournal(tb testing.TB, path, engine string, recs []journalRec, raw string) {
	tb.Helper()
	j, _, _, err := runner.OpenJournal(path, engine)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r.addr, "id-"+r.fp, r.fp, r.res); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	if raw == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(raw); err != nil {
		tb.Fatal(err)
	}
}

// reloadResult is a distinct, deterministic result per index.
func reloadResult(i int) sim.Result {
	return sim.Result{Design: "d", Workload: fmt.Sprintf("w%d", i), ExecTime: int64(1000 + i), ReserveWasted: 1 / float64(i+3)}
}

// The startup reload fans out across Workers but must leave exactly
// what a sequential ReadJournal over the journals in glob order
// leaves: the same store (last write wins across journals), only the
// corrupt journal quarantined, and the same loss counters.
func TestParallelReloadMatchesSequential(t *testing.T) {
	const engine, workers, journals = "e1", 4, 14
	dir := t.TempDir()
	shared := runner.Address(engine, "shared")
	var corruptPath string
	for i := range journals {
		path := filepath.Join(dir, fmt.Sprintf("j%02d.jsonl", i))
		je := engine
		var recs []journalRec
		for r := range 3 {
			recs = append(recs, rec(engine, fmt.Sprintf("j%02d-r%d", i, r), reloadResult(10*i+r)))
		}
		raw := ""
		switch i {
		case 2, 9:
			// One address in two journals: the later one in glob order wins.
			recs = append(recs, rec(engine, "shared", reloadResult(1000+i)))
		case 4:
			// An address that does not hash from its fingerprint.
			recs = append(recs, journalRec{addr: runner.Address(engine, "not-it"), fp: "j04-bad", res: reloadResult(999)})
		case 6:
			raw = `{"addr":"torn","id":"x","fp":"y","res` // crash mid-append
		case 8:
			je = "other-engine"
		case 11:
			raw = "not json at all\n{}\n" // interior damage
			corruptPath = path
		}
		writeJournal(t, path, je, recs, raw)
	}

	// The reference: ReadJournal one journal at a time, in glob order.
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]sim.Result)
	var dropped, torn int
	var corrupt []string
	for _, p := range paths {
		results, stats, err := runner.ReadJournal(p, engine)
		if err != nil {
			corrupt = append(corrupt, p)
			continue
		}
		for addr, res := range results {
			want[addr] = res
		}
		dropped += stats.Dropped
		torn += stats.TornTailBytes
	}
	if !slices.Equal(corrupt, []string{corruptPath}) || dropped == 0 || torn == 0 || want[shared] != reloadResult(1009) {
		t.Fatalf("fixture does not exercise every reload case: corrupt %v, dropped %d, torn %d", corrupt, dropped, torn)
	}

	s, err := New(Config{DataDir: dir, Engine: engine, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.StoreLoaded != int64(len(want)) || m.StoreSize != int64(len(want)) {
		t.Errorf("store loaded %d / size %d, want %d", m.StoreLoaded, m.StoreSize, len(want))
	}
	for addr, res := range want {
		got, computed, err := s.store.Do(context.Background(), addr, func() (sim.Result, error) {
			return sim.Result{}, errors.New("not in the reloaded store")
		})
		if err != nil || computed || got != res {
			t.Errorf("store[%s] = %+v (computed %v, err %v), want %+v", addr[:8], got, computed, err, res)
		}
	}
	if m.JournalDropped != int64(dropped) || m.JournalTornBytes != int64(torn) {
		t.Errorf("dropped %d / torn bytes %d, want the sequential sums %d / %d", m.JournalDropped, m.JournalTornBytes, dropped, torn)
	}
	if m.JournalsQuarantined != 1 {
		t.Errorf("quarantined %d journals, want 1", m.JournalsQuarantined)
	}
	if m.StoreLoadMS <= 0 {
		t.Errorf("store_load_ms = %v, want the reload's wall time", m.StoreLoadMS)
	}
	renamed, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(renamed, []string{corruptPath + ".corrupt"}) {
		t.Errorf("renamed aside %v, want only %s.corrupt", renamed, corruptPath)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(left, slices.DeleteFunc(slices.Clone(paths), func(p string) bool { return p == corruptPath })) {
		t.Errorf("journals left in place %v, want every one but %s", left, corruptPath)
	}
}

// BenchmarkServerStartReload times New over ~600 four-record journals
// holding one real simulation result: the restart cost that stands
// between a crash and /readyz.
func BenchmarkServerStartReload(b *testing.B) {
	const journals, perJournal = 600, 4
	res, err := tinySpec().cells()[0].cell.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	for i := range journals {
		recs := make([]journalRec, perJournal)
		for r := range recs {
			recs[r] = rec(sim.EngineVersion, fmt.Sprintf("bench-%03d-%d", i, r), res)
		}
		writeJournal(b, filepath.Join(dir, fmt.Sprintf("%03d.jsonl", i)), sim.EngineVersion, recs, "")
	}
	b.ResetTimer()
	for range b.N {
		s, err := New(Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if s.storeLoaded != journals*perJournal {
			b.Fatalf("store loaded %d results, want %d", s.storeLoaded, journals*perJournal)
		}
	}
}
