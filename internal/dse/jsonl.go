package dse

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// SchemaVersion identifies the JSONL sweep-file layout: a header line
// followed by one Result per line. Bump it whenever the Point or
// Metrics encoding changes incompatibly; merge and resume refuse
// files from another schema rather than silently misreading them.
const SchemaVersion = 1

// Header is the provenance record written as the first line of every
// sweep JSONL file, wrapped as {"header":{...}} so it can never be
// confused with a result line. It pins everything that must match
// for two files to be combinable: the schema version, the sweep spec
// and seed, the hash of the expanded point list (which changes if the
// expansion logic itself changes), the total point count, and — for
// shard files — which contiguous ID range the file covers. Resume
// and merge both validate it and fail loudly on mismatch instead of
// silently discarding or mixing foreign results.
type Header struct {
	// Schema is the file's SchemaVersion.
	Schema int `json:"schema"`
	// Spec is the sweep specification string the file was run with.
	Spec string `json:"spec"`
	// Seed is the sweep seed; all per-point seeds derive from it.
	Seed uint64 `json:"seed"`
	// SpecHash fingerprints the expanded point list (HashPoints).
	SpecHash string `json:"spec_hash"`
	// Points is the total point count of the full (unsharded) sweep.
	Points int `json:"points"`
	// Shard is the ID range this file covers; nil for an unsharded or
	// merged file, which covers all points.
	Shard *Shard `json:"shard,omitempty"`
}

// headerLine is the JSONL wrapper distinguishing the header from
// result lines.
type headerLine struct {
	Header *Header `json:"header"`
}

// HashPoints fingerprints an expanded point list: a SHA-256 over the
// schema version and the JSON encoding of every point (IDs, derived
// seeds, platform/workload/heuristic/fidelity axes). Two sweeps share
// a hash exactly when they expand to identical points, so the hash
// detects a different spec, a different seed, and — because the
// derived seeds are part of the encoding — a change to the expansion
// algorithm itself.
func HashPoints(points []Point) string {
	h := sha256.New()
	fmt.Fprintf(h, "dse-schema-%d\n", SchemaVersion)
	enc := json.NewEncoder(h)
	for _, p := range points {
		// Encoding a Point never fails; ignore the error to keep the
		// hash a pure function.
		_ = enc.Encode(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// NewHeader builds the header for a sweep over the given expanded
// points. Pass shard == nil for an unsharded run; merged files use
// the same nil-shard form, which is what makes a merged file
// byte-identical to an unsharded one.
func NewHeader(spec string, seed uint64, points []Point, shard *Shard) Header {
	return Header{
		Schema:   SchemaVersion,
		Spec:     spec,
		Seed:     seed,
		SpecHash: HashPoints(points),
		Points:   len(points),
		Shard:    shard,
	}
}

// Check reports whether h describes the sweep want does — schema,
// spec, seed, expanded-point hash, point count and shard range — with
// an error naming the first field that differs. Resume and merge both
// refuse a file that fails it rather than silently discarding or
// mixing foreign results.
func (h Header) Check(want Header) error {
	switch {
	case h.Schema != want.Schema:
		return fmt.Errorf("schema %d vs %d", h.Schema, want.Schema)
	case h.Spec != want.Spec:
		return fmt.Errorf("spec %q vs %q", h.Spec, want.Spec)
	case h.Seed != want.Seed:
		return fmt.Errorf("seed %d vs %d", h.Seed, want.Seed)
	case h.SpecHash != want.SpecHash:
		return fmt.Errorf("spec hash %s vs %s", h.SpecHash, want.SpecHash)
	case h.Points != want.Points:
		return fmt.Errorf("point count %d vs %d", h.Points, want.Points)
	case !reflect.DeepEqual(h.Shard, want.Shard):
		return fmt.Errorf("covers %s, not %s", shardLabel(h.Shard), shardLabel(want.Shard))
	}
	return nil
}

// shardLabel names a header's coverage for error messages.
func shardLabel(s *Shard) string {
	if s == nil {
		return "the full sweep"
	}
	return s.String()
}

// WriteHeader writes the header as the file's first JSONL line.
func WriteHeader(w io.Writer, h Header) error {
	data, err := json.Marshal(headerLine{Header: &h})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// parseHeader decodes a JSONL line as a header line; ok is false for
// anything else (including result lines and torn fragments).
func parseHeader(line []byte) (Header, bool) {
	var hl headerLine
	if err := json.Unmarshal(line, &hl); err != nil || hl.Header == nil {
		return Header{}, false
	}
	return *hl.Header, true
}

// WriteResult appends one result as a JSONL line. Encoding a Result
// is deterministic (fixed field order, no maps), so a sweep streamed
// through an ordered Engine.OnResult produces byte-identical files
// run-to-run for the same seed.
func WriteResult(w io.Writer, r Result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// MatchPrefix returns the longest prefix of results that corresponds
// point-for-point to the expanded sweep — the reusable part of a
// checkpoint. A result matches when its embedded point (spec and
// seeds) is identical to the expansion, so a checkpoint from a
// different sweep, seed or engine version is discarded rather than
// silently merged.
func MatchPrefix(points []Point, results []Result) []Result {
	n := 0
	for n < len(results) && n < len(points) && reflect.DeepEqual(results[n].Point, points[n]) {
		n++
	}
	return results[:n]
}

// MaxLineBytes caps one JSONL line (header or result). Real result
// lines are a few hundred bytes; the cap bounds memory when a crashed
// or foreign writer leaves megabytes of garbage in a file — an
// oversized line is consumed and discarded, never buffered whole.
const MaxLineBytes = 1 << 22

// readCappedLine reads one newline-delimited line from br, buffering
// at most MaxLineBytes of it. It returns the line without its newline,
// whether the cap was exceeded (the rest of the line is consumed and
// dropped), and whether the file ended before a newline (a torn final
// line — or clean EOF when the returned line is empty).
func readCappedLine(br *bufio.Reader) (line []byte, tooLong, noNewline bool, err error) {
	for {
		frag, err := br.ReadSlice('\n')
		if !tooLong {
			line = append(line, frag...)
			if len(line) > MaxLineBytes {
				tooLong, line = true, nil
			}
		}
		switch err {
		case nil:
			if !tooLong {
				line = line[:len(line)-1]
			}
			return line, tooLong, false, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return line, tooLong, true, nil
		default:
			return nil, false, false, err
		}
	}
}

// atEOF reports whether no bytes remain in br.
func atEOF(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err == io.EOF
}

// scanResults reads the result lines following a header with
// defensive corruption handling. A line that is oversized or fails to
// decode is salvageable only when it is the file's last line (a crash
// mid-append tears exactly the tail); the same damage mid-file means
// the file did not come from an append-only writer crashing — it is
// corrupt — and strict callers (shard merge) treat even a torn tail
// as damage, because a shard offered for merging claims completeness.
func scanResults(br *bufio.Reader, strict bool, path string) (results []Result, raw [][]byte, err error) {
	lineNo := 1 // the header was line 1
	for {
		lineNo++
		line, tooLong, noNewline, err := readCappedLine(br)
		if err != nil {
			return nil, nil, err
		}
		if noNewline && len(line) == 0 && !tooLong {
			return results, raw, nil // clean EOF
		}
		var res Result
		reason := ""
		if tooLong {
			reason = fmt.Sprintf("exceeds the %d MiB line cap", MaxLineBytes>>20)
		} else if jsonErr := json.Unmarshal(line, &res); jsonErr != nil {
			reason = jsonErr.Error()
		}
		if reason != "" {
			trailing := noNewline || atEOF(br)
			if strict {
				return nil, nil, fmt.Errorf("dse: %s line %d is malformed (torn write?): %s", path, lineNo, reason)
			}
			if !trailing {
				return nil, nil, fmt.Errorf("dse: %s line %d is corrupt mid-file (%s); a crash only tears the final line — refusing to salvage, inspect or delete the file", path, lineNo, reason)
			}
			return results, raw, nil // torn tail: salvage the prefix
		}
		results = append(results, res)
		raw = append(raw, append([]byte(nil), line...))
	}
}

// Log is one parsed JSONL results file. Every sweep file shares this
// one format — standalone output and -resume checkpoints, shard files,
// coordinator logs and worker lease checkpoints: a Header line, then
// one Result per line in whatever order the writer produced them.
type Log struct {
	// Path is where the log was read from.
	Path string
	// Header is the file's provenance line.
	Header Header
	// Results holds the decoded result lines in file order.
	Results []Result
	// Raw holds each result's original line bytes (without the
	// newline). Merged and resubmitted output re-emits these bytes, so
	// it stays byte-identical to the producing run even if a future
	// encoder would format a float differently.
	Raw [][]byte
}

// ReadLog reads a results log. The header line is mandatory in both
// modes — a headerless file (pre-schema, or a torn header) is an error
// — and so is a malformed or oversized line with data after it, which
// no crashed append-only writer produces. strict picks how the rest is
// judged:
//
//   - strict, for files offered as complete (shards to merge, -hv-ref
//     baselines, worker lease checkpoints): the file must exist and be
//     non-empty, and a torn final line is an error — salvaging a
//     prefix would silently drop points. A header-only file is a valid
//     empty log.
//   - salvage, for crash-resumable checkpoints and coordinator logs: a
//     missing or zero-byte file is no log at all (nil, nil), and a torn
//     final line — what a crash mid-append leaves — is dropped, since
//     the points it held are evaluated again anyway.
func ReadLog(path string, strict bool) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		if !strict && os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	line, tooLong, noNewline, err := readCappedLine(br)
	if err != nil {
		return nil, err
	}
	if noNewline && len(line) == 0 && !tooLong {
		if strict {
			return nil, fmt.Errorf("dse: %s is empty (no header line)", path)
		}
		return nil, nil
	}
	h, ok := parseHeader(line)
	if tooLong || !ok {
		return nil, fmt.Errorf("dse: %s has no header line (pre-schema file or torn header)", path)
	}
	lg := &Log{Path: path, Header: h}
	if lg.Results, lg.Raw, err = scanResults(br, strict, path); err != nil {
		return nil, err
	}
	return lg, nil
}

// MergeShards validates and merges shard result files into one sweep,
// returning the merged file's header (the shards' common sweep with
// the shard range cleared) and the Accumulator holding every point's
// result; its WriteTo renders output byte-identical to an unsharded
// run. Every file's header must describe the same sweep (schema, spec,
// seed, spec hash, point count); the spec is re-expanded and re-hashed
// locally, so a merge run with a drifted engine fails rather than
// producing a file nothing else can reproduce. Results are
// de-duplicated on point ID — byte-identical duplicates are dropped,
// conflicting ones are an error — checked against the local expansion
// point-for-point, and must cover the full sweep: a missing shard is
// reported by its missing ID range, not papered over.
func MergeShards(paths []string) (Header, *Accumulator, error) {
	if len(paths) == 0 {
		return Header{}, nil, fmt.Errorf("dse: no shard files to merge")
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	var logs []*Log
	for _, p := range sorted {
		lg, err := ReadLog(p, true)
		if err != nil {
			return Header{}, nil, err
		}
		logs = append(logs, lg)
	}
	h := logs[0].Header
	h.Shard = nil
	for _, lg := range logs[1:] {
		other := lg.Header
		other.Shard = nil
		if err := other.Check(h); err != nil {
			return Header{}, nil, fmt.Errorf("dse: shard %s is from a different sweep than %s (%v)", lg.Path, logs[0].Path, err)
		}
	}
	if h.Schema != SchemaVersion {
		return Header{}, nil, fmt.Errorf("dse: shards use schema %d, this engine writes %d", h.Schema, SchemaVersion)
	}
	sw, err := ParseSweep(h.Spec, h.Seed)
	if err != nil {
		return Header{}, nil, fmt.Errorf("dse: shard header spec does not parse: %w", err)
	}
	points, err := sw.Points()
	if err != nil {
		return Header{}, nil, err
	}
	if len(points) != h.Points || HashPoints(points) != h.SpecHash {
		return Header{}, nil, fmt.Errorf("dse: spec %q re-expands to %d points hash %s, but shards were run with %d points hash %s (engine drift?)",
			h.Spec, len(points), HashPoints(points), h.Points, h.SpecHash)
	}
	acc := NewAccumulator(points)
	for _, lg := range logs {
		for i, r := range lg.Results {
			if s := lg.Header.Shard; s != nil && (r.Point.ID < s.Lo || r.Point.ID >= s.Hi) {
				return Header{}, nil, fmt.Errorf("dse: shard %s carries point ID %d outside its declared range %v", lg.Path, r.Point.ID, *s)
			}
			if _, err := acc.AddResult(r, lg.Raw[i]); err != nil {
				return Header{}, nil, fmt.Errorf("shard %s: %w (conflicting shards?)", lg.Path, err)
			}
		}
	}
	if missing, firstMissing := acc.Missing(); missing > 0 {
		return Header{}, nil, fmt.Errorf("dse: merge is missing %d of %d points (first missing ID %d) — is a shard file absent from the glob?",
			missing, len(points), firstMissing)
	}
	return h, acc, nil
}

// countWriter counts bytes written through it (io.WriterTo contract).
type countWriter struct {
	w io.Writer
	n int64
}

// Write forwards to the wrapped writer and tallies bytes.
func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
