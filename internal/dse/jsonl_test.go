package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// onePointSpec expands to exactly one design point — small enough to
// hand-craft empty (header-only) companion shard files around.
const onePointSpec = "plat=homog2;wl=carradio"

// TestMergeEmptyAndHeaderOnlyShards: a zero-byte shard file is a loud
// error (its provenance is unverifiable), while a header-only file —
// as a worker whose whole lease range ended up evaluated elsewhere
// checkpoints — is a legal empty shard and merges cleanly.
func TestMergeEmptyAndHeaderOnlyShards(t *testing.T) {
	dir := t.TempDir()
	points := expandSweep(t, onePointSpec, 9)
	if len(points) != 1 {
		t.Fatalf("spec expands to %d points, want 1", len(points))
	}
	full := Shard{Index: 0, Count: 2, Lo: 0, Hi: 1}
	emptyShard := Shard{Index: 1, Count: 2, Lo: 1, Hi: 1}
	paths := []string{
		ShardPath(filepath.Join(dir, "s.jsonl"), 0),
		ShardPath(filepath.Join(dir, "s.jsonl"), 1),
	}
	runShardFile(t, paths[0], onePointSpec, 9, &full, 1)
	var hdr bytes.Buffer
	if err := WriteHeader(&hdr, NewHeader(onePointSpec, 9, points, &emptyShard)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], hdr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// The empty shard is a single header line only.
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 1 {
		t.Fatalf("empty shard %s has %d lines, want header only", paths[1], n)
	}
	lg, err := ReadLog(paths[1], true)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Results) != 0 {
		t.Fatalf("header-only shard decoded %d results", len(lg.Results))
	}
	_, acc, err := MergeShards(paths)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Done() != 1 || acc.Duplicates() != 0 {
		t.Fatalf("merged %d results (%d dups), want 1 (0)", acc.Done(), acc.Duplicates())
	}
	// A zero-byte file must be rejected, both alone and in a merge.
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(empty, true); err == nil {
		t.Fatal("zero-byte shard file accepted")
	}
	if _, _, err := MergeShards(append(paths, empty)); err == nil {
		t.Fatal("merge accepted a zero-byte shard file")
	}
}

// TestMergeDeduplicatesOverlappingShards: identical results for the
// same point ID across files are dropped and counted; conflicting
// results are an error, not a silent pick.
func TestMergeDuplicatePointIDs(t *testing.T) {
	dir := t.TempDir()
	const spec, seed = "plat=homog2,homog4;wl=carradio,jpeg", 3
	points := expandSweep(t, spec, seed)
	shards, err := PlanShards(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := ShardPath(filepath.Join(dir, "d.jsonl"), 0)
	s1 := ShardPath(filepath.Join(dir, "d.jsonl"), 1)
	full := filepath.Join(dir, "full.jsonl")
	runShardFile(t, s0, spec, seed, &shards[0], 1)
	runShardFile(t, s1, spec, seed, &shards[1], 2)
	runShardFile(t, full, spec, seed, nil, 4)
	// The unsharded file overlaps both shards completely: every one
	// of its lines is a duplicate of a shard line.
	h, acc, err := MergeShards([]string{s0, s1, full})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Duplicates() != len(points) {
		t.Fatalf("dropped %d duplicates, want %d", acc.Duplicates(), len(points))
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := acc.WriteTo(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("overlap-tolerant merge diverged from unsharded bytes")
	}
	// Tamper one metric in the overlapping copy: now the duplicate
	// conflicts and the merge must refuse.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"busy_ps":`), []byte(`"busy_ps":9`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper marker not found")
	}
	bad := filepath.Join(dir, "tampered.jsonl")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeShards([]string{s0, s1, bad}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting duplicate not rejected: %v", err)
	}
}

// TestMergeMissingShard: a merge that does not cover the full sweep
// names the gap instead of writing a silently partial file.
func TestMergeMissingShard(t *testing.T) {
	dir := t.TempDir()
	const spec, seed = "plat=homog2,homog4;wl=carradio,jpeg", 3
	points := expandSweep(t, spec, seed)
	shards, err := PlanShards(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := ShardPath(filepath.Join(dir, "m.jsonl"), 0)
	runShardFile(t, s0, spec, seed, &shards[0], 1)
	_, _, err = MergeShards([]string{s0})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("partial merge not rejected: %v", err)
	}
}

// TestMergeForeignShards: files from a different seed, a tampered
// header hash, or a headerless file never merge.
func TestMergeForeignShards(t *testing.T) {
	dir := t.TempDir()
	const spec = "plat=homog2,homog4;wl=carradio,jpeg"
	points := expandSweep(t, spec, 3)
	shards, err := PlanShards(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := ShardPath(filepath.Join(dir, "f.jsonl"), 0)
	runShardFile(t, s0, spec, 3, &shards[0], 1)
	// Same spec, different seed on the other shard.
	foreign := ShardPath(filepath.Join(dir, "f.jsonl"), 1)
	otherPoints := expandSweep(t, spec, 4)
	otherShards, err := PlanShards(otherPoints, 2)
	if err != nil {
		t.Fatal(err)
	}
	runShardFile(t, foreign, spec, 4, &otherShards[1], 1)
	if _, _, err := MergeShards([]string{s0, foreign}); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("foreign-seed shard not rejected: %v", err)
	}
	// A corrupted spec hash must trip the local re-expansion check.
	data, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeader(spec, 3, points, &shards[0])
	drifted := bytes.Replace(data, []byte(h.SpecHash), []byte("deadbeefdeadbeef"), 1)
	bad := filepath.Join(dir, "drifted.jsonl")
	if err := os.WriteFile(bad, drifted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeShards([]string{bad}); err == nil {
		t.Fatal("drifted spec hash not rejected")
	}
	// Headerless (pre-schema) files are rejected outright.
	_, rest, _ := bytes.Cut(data, []byte("\n"))
	headerless := filepath.Join(dir, "headerless.jsonl")
	if err := os.WriteFile(headerless, rest, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeShards([]string{headerless}); err == nil {
		t.Fatal("headerless shard not rejected")
	}
	if _, _, err := MergeShards(nil); err == nil {
		t.Fatal("empty merge set accepted")
	}
}

// TestHashPoints: the fingerprint moves with the seed and the spec
// but not with re-expansion.
func TestHashPoints(t *testing.T) {
	a := HashPoints(expandSweep(t, "smoke", 1))
	b := HashPoints(expandSweep(t, "smoke", 1))
	if a != b {
		t.Fatal("hash not stable across expansions")
	}
	if a == HashPoints(expandSweep(t, "smoke", 2)) {
		t.Fatal("hash ignores the seed")
	}
	if a == HashPoints(expandSweep(t, onePointSpec, 1)) {
		t.Fatal("hash ignores the spec")
	}
}

// buildCheckpoint writes a valid checkpoint for spec/seed — header
// plus every result line — and returns its path, header, points and
// the individual result lines.
func buildCheckpoint(t *testing.T, dir, spec string, seed uint64) (string, Header, []Point, [][]byte) {
	t.Helper()
	points := expandSweep(t, spec, seed)
	header := NewHeader(spec, seed, points, nil)
	var buf bytes.Buffer
	if err := WriteHeader(&buf, header); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Workers: 2, OnResult: func(r Result) {
		if err := WriteResult(&buf, r); err != nil {
			t.Error(err)
		}
	}}
	eng.Run(points)
	path := filepath.Join(dir, "ckpt.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, l := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return path, header, points, lines
}

// TestCheckpointTornTailSalvage: trailing damage of every shape — a
// torn JSON fragment, truncated UTF-8 mid-rune, and a multi-megabyte
// junk tail far beyond the line cap — salvages the valid prefix
// instead of erroring or buffering the garbage.
func TestCheckpointTornTailSalvage(t *testing.T) {
	dir := t.TempDir()
	path, header, points, lines := buildCheckpoint(t, dir, "plat=homog2,homog4;wl=carradio,jpeg", 5)
	keep := len(lines) - 2 // header + first result
	prefix := bytes.Join(lines[:keep], nil)
	for name, tail := range map[string][]byte{
		"torn-json":      []byte(`{"point":{"id`),
		"torn-utf8":      append([]byte(`{"err":"`), 0xE2, 0x82), // € cut after 2 of 3 bytes
		"newline-junk":   []byte("not json at all\n"),
		"huge-junk-tail": bytes.Repeat([]byte{0xFF}, (1<<20)+4096),
		"oversized-line": append(bytes.Repeat([]byte{'x'}, MaxLineBytes+2), '\n'),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte(nil), prefix...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := resumePrefix(path, header, points)
			if err != nil {
				t.Fatalf("salvage failed: %v", err)
			}
			if len(got) != keep-1 {
				t.Fatalf("salvaged %d results, want %d", len(got), keep-1)
			}
		})
	}
}

// TestCheckpointMidFileCorruptionIsLoud: damage that is not a torn
// tail — a malformed, oversized or binary line with valid results
// after it — cannot come from a crashed append-only writer, and
// loading must fail loudly instead of silently truncating the
// checkpoint at the damage.
func TestCheckpointMidFileCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	path, header, points, lines := buildCheckpoint(t, dir, "plat=homog2,homog4;wl=carradio,jpeg", 5)
	last := lines[len(lines)-1]
	for name, corrupt := range map[string][]byte{
		"malformed-line": []byte("{\"point\":{\"id\n"),
		"binary-line":    append(bytes.Repeat([]byte{0xFE}, 64), '\n'),
		"oversized-line": append(bytes.Repeat([]byte{'x'}, MaxLineBytes+2), '\n'),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			buf.Write(bytes.Join(lines[:len(lines)-1], nil))
			buf.Write(corrupt)
			buf.Write(last)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := resumePrefix(path, header, points)
			if err == nil || !strings.Contains(err.Error(), "mid-file") {
				t.Fatalf("mid-file corruption not rejected: %v", err)
			}
		})
	}
}

// resumePrefix is the standalone -resume path: read the checkpoint in
// salvage mode, refuse a foreign header, and keep the prefix that
// matches the expansion point for point.
func resumePrefix(path string, want Header, points []Point) ([]Result, error) {
	lg, err := ReadLog(path, false)
	if err != nil || lg == nil {
		return nil, err
	}
	if err := lg.Header.Check(want); err != nil {
		return nil, err
	}
	return MatchPrefix(points, lg.Results), nil
}

// TestReadResultLog: the results-log reader hands back results in file
// (arrival) order with their original line bytes, salvages a torn tail
// or refuses it by mode, runs the one header check against foreign and
// shard headers, and treats a missing file by mode.
func TestReadResultLog(t *testing.T) {
	dir := t.TempDir()
	path, header, _, lines := buildCheckpoint(t, dir, "plat=homog2,homog4;wl=carradio,jpeg", 5)
	// Rewrite with the result lines reversed (arrival order != point
	// order).
	var clean bytes.Buffer
	clean.Write(lines[0])
	for i := len(lines) - 1; i >= 1; i-- {
		clean.Write(lines[i])
	}
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	torn := write("torn.jsonl", append(append([]byte(nil), clean.Bytes()...), `{"point":{"id":`...))
	write(filepath.Base(path), clean.Bytes())

	t.Run("strict", func(t *testing.T) {
		lg, err := ReadLog(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(lg.Results) != len(lines)-1 || len(lg.Raw) != len(lg.Results) {
			t.Fatalf("loaded %d results (%d raw), want %d", len(lg.Results), len(lg.Raw), len(lines)-1)
		}
		if lg.Results[0].Point.ID != len(lines)-2 {
			t.Fatalf("first loaded result is point %d, want %d (arrival order)", lg.Results[0].Point.ID, len(lines)-2)
		}
		for i, r := range lg.Raw {
			if want := bytes.TrimSuffix(lines[len(lines)-1-i], []byte("\n")); !bytes.Equal(r, want) {
				t.Fatalf("raw line %d diverged from file bytes", i)
			}
		}
		if lg.Header.Check(header) != nil || lg.Path != path {
			t.Fatalf("header %+v from %s, want %+v from %s", lg.Header, lg.Path, header, path)
		}
		if _, err := ReadLog(torn, true); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Fatalf("strict read accepted a torn tail: %v", err)
		}
	})
	t.Run("salvage", func(t *testing.T) {
		lg, err := ReadLog(torn, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(lg.Results) != len(lines)-1 {
			t.Fatalf("salvaged %d results, want %d", len(lg.Results), len(lines)-1)
		}
		// A foreign sweep's header fails the one header check.
		other := NewHeader("smoke", 1, expandSweep(t, "smoke", 1), nil)
		if err := lg.Header.Check(other); err == nil {
			t.Fatal("foreign result log passed the header check")
		}
		shard := header
		shard.Shard = &Shard{Index: 0, Count: 2, Lo: 0, Hi: 2}
		if err := lg.Header.Check(shard); err == nil || !strings.Contains(err.Error(), "covers") {
			t.Fatalf("full-sweep log passed as a shard: %v", err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		missing := filepath.Join(dir, "nope.jsonl")
		if lg, err := ReadLog(missing, false); err != nil || lg != nil {
			t.Fatalf("salvage read of a missing log: %v, %v", lg, err)
		}
		if _, err := ReadLog(missing, true); err == nil {
			t.Fatal("strict read of a missing file succeeded")
		}
	})
}

// TestReadLog covers the files with no results to read: an empty file
// is no log when salvaging and an error when strict, and a headerless
// file is an error in both modes. TestPeekHeader covers header-only
// logs.
func TestReadLog(t *testing.T) {
	dir := t.TempDir()
	_, _, _, lines := buildCheckpoint(t, dir, "plat=homog2,homog4;wl=carradio,jpeg", 5)
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Run("empty", func(t *testing.T) {
		empty := write("empty.jsonl", nil)
		if lg, err := ReadLog(empty, false); err != nil || lg != nil {
			t.Fatalf("salvage read of an empty log: %v, %v", lg, err)
		}
		if _, err := ReadLog(empty, true); err == nil || !strings.Contains(err.Error(), "empty") {
			t.Fatalf("strict read of an empty file: %v", err)
		}
	})
	t.Run("headerless", func(t *testing.T) {
		headerless := write("headerless.jsonl", bytes.Join(lines[1:], nil))
		for _, strict := range []bool{true, false} {
			if _, err := ReadLog(headerless, strict); err == nil || !strings.Contains(err.Error(), "no header") {
				t.Fatalf("strict=%v: headerless file: %v", strict, err)
			}
		}
	})
}

// TestAccumulator: incremental acceptance enforces the same contract
// as MergeShards — validation against the expansion, byte-identical
// dedupe, conflict refusal — and a complete accumulator writes output
// byte-identical to the producing run.
func TestAccumulator(t *testing.T) {
	dir := t.TempDir()
	path, header, points, lines := buildCheckpoint(t, dir, "plat=homog2,homog4;wl=carradio,jpeg", 5)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(points)
	// Feed result lines in reverse, then every line again (dupes).
	for i := len(lines) - 1; i >= 1; i-- {
		added, err := acc.Add(lines[i])
		if err != nil || !added {
			t.Fatalf("Add line %d = %v, %v", i, added, err)
		}
	}
	if !acc.Complete() {
		t.Fatalf("accumulator incomplete at %d/%d", acc.Done(), acc.Total())
	}
	for _, l := range lines[1:] {
		if added, err := acc.Add(l); err != nil || added {
			t.Fatalf("duplicate line accepted as new: %v, %v", added, err)
		}
	}
	if acc.Duplicates() != len(lines)-1 {
		t.Fatalf("counted %d duplicates, want %d", acc.Duplicates(), len(lines)-1)
	}
	var buf bytes.Buffer
	if _, err := acc.WriteTo(&buf, header); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("accumulated output diverged from the producing run's bytes")
	}
	// Conflicting bytes for an accepted point refuse loudly.
	tampered := bytes.Replace(lines[1], []byte(`"busy_ps":`), []byte(`"busy_ps":9`), 1)
	if _, err := acc.Add(tampered); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting resubmission not rejected: %v", err)
	}
	// Out-of-sweep and spec-mismatched points refuse.
	if _, err := acc.Add([]byte(`{"point":{"id":99999},"metrics":{}}`)); err == nil {
		t.Fatal("out-of-range point accepted")
	}
	foreign := append([]byte(nil), lines[1]...)
	foreign = bytes.Replace(foreign, []byte(`"seed":`), []byte(`"seed":1`), 1)
	if _, err := acc.Add(foreign); err == nil {
		t.Fatal("spec-mismatched point accepted")
	}
	// Live-front input: Completed is ID-ordered and complete here.
	comp := acc.Completed()
	if len(comp) != len(points) {
		t.Fatalf("Completed returned %d results, want %d", len(comp), len(points))
	}
	for i, r := range comp {
		if r.Point.ID != i {
			t.Fatalf("Completed[%d] is point %d, want %d", i, r.Point.ID, i)
		}
	}
	if missing, first := acc.Missing(); missing != 0 || first != -1 {
		t.Fatalf("Missing() = %d, %d on a complete accumulator", missing, first)
	}
}
