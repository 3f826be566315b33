package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanTorn collects a ScanTorn stream into a dataset.
func scanTorn(r io.Reader) (*Dataset, int, error) {
	d := &Dataset{}
	discarded, err := ScanTorn(r, func(e *Experiment) error {
		d.Add(e)
		return nil
	})
	return d, discarded, err
}

func TestScanTornJSONLTail(t *testing.T) {
	var buf bytes.Buffer
	ds := &Dataset{}
	ds.Add(sampleExperiment(1, "att"))
	ds.Add(sampleExperiment(2, "att"))
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	torn := `{"seq":3,"client_id":"att-0` // killed mid-append, no newline
	buf.WriteString(torn)

	got, discarded, err := scanTorn(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("experiments = %d, want 2 (torn line dropped)", got.Len())
	}
	if discarded != len(torn) {
		t.Fatalf("discarded = %d, want %d", discarded, len(torn))
	}

	// Strict mode must reject the same input loudly.
	if _, err := ReadJSONL(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("strict ReadJSONL accepted a torn tail")
	}
}

func TestScanTornRejectsMidFileCorruption(t *testing.T) {
	// A broken line that is NOT the unterminated tail is real corruption:
	// tolerating it would silently drop arbitrary experiments.
	input := `{"seq":1}` + "\n" + `{broken` + "\n" + `{"seq":2}` + "\n"
	if _, _, err := scanTorn(strings.NewReader(input)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	// Even a broken final line is corruption when newline-terminated: the
	// append completed, so the bytes were written that way.
	input = `{"seq":1}` + "\n" + `{broken` + "\n"
	if _, _, err := scanTorn(strings.NewReader(input)); err == nil {
		t.Fatal("newline-terminated corruption accepted")
	}
}

func TestScanTornCleanInput(t *testing.T) {
	var buf bytes.Buffer
	ds := &Dataset{}
	ds.Add(sampleExperiment(1, "att"))
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, discarded, err := scanTorn(bytes.NewReader(buf.Bytes()))
	if err != nil || discarded != 0 || got.Len() != 1 {
		t.Fatalf("clean input: len=%d discarded=%d err=%v", got.Len(), discarded, err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	m := Manifest{Seed: 7, ConfigHash: "00c0ffee", Total: 4}
	ck, err := CreateCheckpoint(dir, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := ck.Append(sampleExperiment(seq, "att")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, prior, discarded, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if discarded != 0 {
		t.Fatalf("clean checkpoint reported %d torn bytes", discarded)
	}
	got := reopened.Manifest()
	if got.Seed != 7 || got.ConfigHash != "00c0ffee" || got.Total != 4 {
		t.Fatalf("manifest identity lost: %+v", got)
	}
	if got.Completed != 3 || prior.Len() != 3 {
		t.Fatalf("completed = %d (prior %d), want 3", got.Completed, prior.Len())
	}
	for i, e := range prior.Experiments {
		if e.Seq != i+1 {
			t.Fatalf("prior[%d].Seq = %d", i, e.Seq)
		}
	}

	// Appends continue past the prior prefix.
	if err := reopened.Append(sampleExperiment(4, "att")); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := reopened.Manifest().Completed; c != 4 {
		t.Fatalf("completed after append = %d, want 4", c)
	}
}

func TestOpenCheckpointTruncatesTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	ck, err := CreateCheckpoint(dir, Manifest{Seed: 1, Total: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(sampleExperiment(1, "att")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentFile)
	// A kill mid-append leaves a prefix of the next curtainbin segment.
	var next bytes.Buffer
	nw := NewBinaryAppender(&next)
	if err := nw.Append(sampleExperiment(2, "att")); err != nil {
		t.Fatal(err)
	}
	if err := nw.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := next.Bytes()[:next.Len()/2]
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	reopened, prior, discarded, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != len(torn) || prior.Len() != 1 {
		t.Fatalf("discarded=%d prior=%d, want %d and 1", discarded, prior.Len(), len(torn))
	}
	// The segment file itself must be cut back to the durable prefix.
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("segment size %d, want %d", after.Size(), before.Size()-int64(len(torn)))
	}
	// And the next append must land on a clean segment boundary.
	if err := reopened.Append(sampleExperiment(2, "att")); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sf.Close() }()
	final, err := ReadJSONL(sf)
	if err != nil {
		t.Fatalf("segment unreadable after torn-tail recovery: %v", err)
	}
	if final.Len() != 2 || final.Experiments[1].Seq != 2 {
		t.Fatalf("recovered segment = %d experiments", final.Len())
	}
}

func TestOpenCheckpointRefusesJSONLSegment(t *testing.T) {
	// Checkpoints are curtainbin only. A directory holding a JSONL
	// segment (the layout older versions could write) is refused with an
	// error naming the segment path it lacks, at resume and at analyze.
	dir := t.TempDir()
	m := fmt.Sprintf(`{"version":%d,"format":"jsonl","seed":7,"config_hash":"h","total":2,"completed":1}`, ManifestVersion)
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ds := &Dataset{}
	ds.Add(sampleExperiment(1, "att"))
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "experiments.jsonl"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "experiments.bin")
	if _, _, _, err := OpenCheckpoint(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenCheckpoint on a JSONL checkpoint: err = %v, want one naming %s", err, want)
	}
	if _, err := ScanCheckpoint(dir, func(*Experiment) error { return nil }); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ScanCheckpoint on a JSONL checkpoint: err = %v, want one naming %s", err, want)
	}

	// JSONL bytes under the curtainbin name are refused too: appending
	// curtainbin segments to them would corrupt the file.
	if err := os.WriteFile(want, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "not curtainbin") {
		t.Fatalf("OpenCheckpoint on JSONL bytes in %s: err = %v", want, err)
	}
}

func TestOpenCheckpointRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := OpenCheckpoint(dir); err == nil {
		t.Fatal("missing manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenCheckpoint(dir); err == nil {
		t.Fatal("future manifest version accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A failing writer must leave no file and no temp litter behind.
	bad := filepath.Join(dir, "bad.txt")
	if err := WriteFileAtomic(bad, func(io.Writer) error {
		return os.ErrInvalid
	}); err == nil {
		t.Fatal("write error swallowed")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("failed write left a file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.txt" {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}

	// Overwrite replaces content atomically.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("replaced"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "replaced" {
		t.Fatalf("read back %q, %v", got, err)
	}
}
