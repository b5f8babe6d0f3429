package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"wlcache/internal/sim"
)

// Schema identifies the journal file format. The first line of every
// journal is a header record carrying this schema tag plus the engine
// version; every following line is one completed cell.
const Schema = "wlrun/v1"

// Address computes the content address of a cell: a hex SHA-256 over
// the journal schema, the engine version and the cell fingerprint
// (the canonical serialization of design config + workload + trace
// params the caller builds). Two cells share an address exactly when
// the same engine would provably compute the same result for both.
func Address(engine, fingerprint string) string {
	h := sha256.New()
	h.Write([]byte(Schema))
	h.Write([]byte{0})
	h.Write([]byte(engine))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// header is the journal's first line.
type header struct {
	Schema string `json:"schema"`
	Engine string `json:"engine"`
}

// journalRecord is one completed cell. Addr must equal
// Address(engine, Fingerprint) — reload rejects records where it does
// not, so a tampered or mis-keyed record is recomputed, never served.
type journalRecord struct {
	Addr        string     `json:"addr"`
	ID          string     `json:"id"`
	Fingerprint string     `json:"fp"`
	Result      sim.Result `json:"result"`
}

// LoadStats reports what reloading a journal found and discarded.
type LoadStats struct {
	// Records is the number of valid records served from the journal
	// file (after last-write-wins deduplication).
	Records int
	// Duplicates counts records superseded by a later record with the
	// same address (the earlier write loses).
	Duplicates int
	// Rejected counts well-formed records whose stored address did not
	// match the hash of their stored fingerprint; they are skipped.
	Rejected int
	// TornTail is true when the final line was a torn (truncated or
	// unterminated) record, discarded on reload — the expected damage
	// shape for a crash mid-append.
	TornTail bool
	// TornTailBytes counts the bytes discarded with the torn tail, so
	// reload loss is quantified, never silent.
	TornTailBytes int
	// Dropped counts every whole record present in the file but not
	// served on reload: Duplicates + Rejected + records discarded
	// wholesale on an engine mismatch. The torn tail is not a whole
	// record and is accounted by TornTailBytes instead.
	Dropped int
	// EngineMismatch is true when the journal belonged to a different
	// engine version; all of its records were discarded and the file
	// restarted, since no address could ever be served anyway.
	EngineMismatch bool
}

// Journal is an append-only, fsync'd JSONL file of completed sweep
// cells. Appends are serialized; each record is durable (written and
// synced) before Append returns, which is what makes a sweep killed at
// an arbitrary instant resumable with at most the in-flight record
// lost.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	engine   string
	appended int
	// afterAppend, when set, runs after the n-th record is durable,
	// still holding the append lock — the chaos harness uses it to
	// kill the process at a point where the journal state is exactly
	// known.
	afterAppend func(n int)
	// observeFsync, when set, receives the wall time of each record's
	// fsync, still holding the append lock.
	observeFsync func(d time.Duration)
}

// OpenJournal opens (creating if needed) the journal at path for the
// given engine version, and returns the journal ready for appends plus
// every valid journaled result keyed by content address.
//
// Reload is truncation-tolerant: a torn final record — the footprint
// of a crash mid-append — is discarded and the file truncated back to
// the last durable record, not treated as fatal. Corruption anywhere
// else wraps ErrJournalCorrupt. Duplicate addresses resolve
// last-write-wins.
func OpenJournal(path, engine string) (*Journal, map[string]sim.Result, LoadStats, error) {
	var stats LoadStats
	results := make(map[string]sim.Result)

	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, stats, err
	}

	keep := 0 // byte offset past the last line worth preserving
	fresh := len(data) == 0

	if !fresh {
		keep, fresh, err = scanJournal(data, engine, results, &stats)
		if err != nil {
			return nil, nil, stats, err
		}
	}

	if fresh {
		keep = 0
	}
	if keep < len(data) {
		// Drop the torn tail (or, on engine mismatch, everything)
		// before appending: new records must start on a clean line.
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, nil, stats, err
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, stats, err
	}
	j := &Journal{f: f, engine: engine}
	if fresh {
		line, err := json.Marshal(header{Schema: Schema, Engine: engine})
		if err != nil {
			f.Close()
			return nil, nil, stats, err
		}
		if err := j.writeLine(line); err != nil {
			f.Close()
			return nil, nil, stats, err
		}
	}
	return j, results, stats, nil
}

// scanJournal walks the raw file contents, filling results, and
// returns the preserve-up-to offset plus whether the file must be
// restarted from scratch (torn or mismatched header).
func scanJournal(data []byte, engine string, results map[string]sim.Result, stats *LoadStats) (keep int, fresh bool, err error) {
	off, lineNo := 0, 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		torn := nl < 0
		var line []byte
		var end int
		if torn {
			line, end = data[off:], len(data)
		} else {
			line, end = data[off:off+nl], off+nl+1
		}
		lineNo++

		if lineNo == 1 {
			var h header
			if jerr := json.Unmarshal(line, &h); jerr != nil || torn {
				if torn {
					// Crash while creating the journal: the header
					// itself is the torn tail. Restart.
					stats.TornTail = true
					stats.TornTailBytes = len(data)
					return 0, true, nil
				}
				return 0, false, fmt.Errorf("%w: unreadable header: %v", ErrJournalCorrupt, jerr)
			}
			if h.Schema != Schema {
				// Never clobber a file we did not write.
				return 0, false, fmt.Errorf("%w: schema %q, want %q", ErrJournalCorrupt, h.Schema, Schema)
			}
			if h.Engine != engine {
				stats.EngineMismatch = true
				stats.Dropped += countLines(data[end:])
				return 0, true, nil
			}
			keep, off = end, end
			continue
		}

		var r journalRecord
		if jerr := json.Unmarshal(line, &r); jerr != nil || torn {
			if end == len(data) {
				stats.TornTail = true
				stats.TornTailBytes = len(data) - keep
				return keep, false, nil
			}
			return 0, false, fmt.Errorf("%w: unreadable record on line %d: %v", ErrJournalCorrupt, lineNo, jerr)
		}
		keep, off = end, end
		if r.Addr != Address(engine, r.Fingerprint) {
			stats.Rejected++
			stats.Dropped++
			continue
		}
		if _, dup := results[r.Addr]; dup {
			stats.Duplicates++
			stats.Dropped++
			stats.Records--
		}
		results[r.Addr] = r.Result
		stats.Records++
	}
	return keep, false, nil
}

// countLines counts newline-terminated lines — whole records; a
// trailing partial line is torn, not a record.
func countLines(data []byte) int {
	return bytes.Count(data, []byte{'\n'})
}

// ReadJournal loads the valid records of a journal without opening it
// for append and without repairing its tail: a pure read, safe on a
// journal another process is still writing. A missing file returns an
// empty map. An engine mismatch returns an empty map with
// stats.EngineMismatch set. Interior corruption wraps
// ErrJournalCorrupt, exactly as OpenJournal would.
func ReadJournal(path, engine string) (map[string]sim.Result, LoadStats, error) {
	var stats LoadStats
	results := make(map[string]sim.Result)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return results, stats, nil
		}
		return nil, stats, err
	}
	if len(data) == 0 {
		return results, stats, nil
	}
	if _, fresh, err := scanJournal(data, engine, results, &stats); err != nil {
		return nil, stats, err
	} else if fresh {
		// Torn header or foreign engine: nothing servable.
		return make(map[string]sim.Result), stats, nil
	}
	return results, stats, nil
}

// JournalLoad is one journal's ReadJournal outcome.
type JournalLoad struct {
	Results map[string]sim.Result
	Stats   LoadStats
	Err     error
}

// ReadJournals runs ReadJournal on every path across up to workers
// goroutines (0 = NumCPU) and returns the outcomes index-aligned with
// paths. Journals are independent files, so only the wall time
// changes: a caller that applies the outcomes in paths order gets
// exactly what reading them one after another would give, including
// last-write-wins across journals.
func ReadJournals(paths []string, engine string, workers int) []JournalLoad {
	loads := make([]JournalLoad, len(paths))
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(paths))
	// Journals differ in size, so workers take paths one at a time
	// instead of splitting them up front.
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				l := &loads[i]
				l.Results, l.Stats, l.Err = ReadJournal(paths[i], engine)
			}
		}()
	}
	for i := range paths {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return loads
}

// Append durably records one completed cell: the line is written and
// fsync'd before Append returns.
func (j *Journal) Append(addr, id, fingerprint string, res sim.Result) error {
	line, err := json.Marshal(journalRecord{Addr: addr, ID: id, Fingerprint: fingerprint, Result: res})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writeLine(line); err != nil {
		return err
	}
	j.appended++
	if j.afterAppend != nil {
		j.afterAppend(j.appended)
	}
	return nil
}

// writeLine appends one newline-terminated record and syncs. Callers
// other than OpenJournal must hold j.mu.
func (j *Journal) writeLine(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	start := time.Now()
	err := j.f.Sync()
	if err == nil && j.observeFsync != nil {
		j.observeFsync(time.Since(start))
	}
	return err
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
