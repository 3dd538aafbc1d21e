package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cc"
)

const checkerV1 = `
sm demo_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v } ==> v.stop, { err("use after free"); }
;
`

const checkerV2 = `
sm demo_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { err("use after free"); }
  | { kfree(v) } ==> v.stop, { err("double free"); }
;
`

const otherChecker = `
sm other_checker;

enabled:
    { cli() } ==> disabled
;

disabled:
    { sti() } ==> enabled
;
`

func TestUploadVersioningAndIdempotence(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	e1, created, err := r.Upload(checkerV1)
	if err != nil || !created {
		t.Fatalf("upload v1: %v created=%v", err, created)
	}
	if e1.Name != "demo_checker" || e1.Version != 1 || e1.Status != StatusPending {
		t.Fatalf("entry = %+v", e1)
	}
	// Same text again: same entry, not a new version.
	dup, created, err := r.Upload(checkerV1)
	if err != nil || created || dup.ID != e1.ID {
		t.Fatalf("duplicate upload: %+v created=%v err=%v", dup, created, err)
	}
	e2, _, err := r.Upload(checkerV2)
	if err != nil || e2.Version != 2 || e2.Name != "demo_checker" {
		t.Fatalf("upload v2: %+v err=%v", e2, err)
	}
	o, _, err := r.Upload(otherChecker)
	if err != nil || o.Version != 1 {
		t.Fatalf("other checker: %+v err=%v", o, err)
	}
	if _, _, err := r.Upload("sm broken; this is not metal"); err == nil {
		t.Error("unparseable checker was accepted")
	}
	if got := len(r.List()); got != 3 {
		t.Errorf("list length = %d, want 3", got)
	}
}

func TestEnableRequiresAdmission(t *testing.T) {
	r, _ := Open("")
	e, _, err := r.Upload(checkerV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetEnabled(e.ID, true); err == nil {
		t.Fatal("pending checker was enabled")
	}
	if err := r.SetVerdict(e.ID, false, json.RawMessage(`{"status":"rejected"}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEnabled(e.ID, true); err == nil {
		t.Fatal("rejected checker was enabled")
	}
	if err := r.SetVerdict(e.ID, true, json.RawMessage(`{"status":"admitted"}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEnabled(e.ID, true); err != nil {
		t.Fatal(err)
	}
	on, err := r.Enabled()
	if err != nil || len(on) != 1 || on[0].Entry.ID != e.ID || on[0].Checker.Source != checkerV1 {
		t.Fatalf("enabled = %+v err=%v", on, err)
	}
}

func TestEnableNewVersionSupersedesOld(t *testing.T) {
	r, _ := Open("")
	e1, _, _ := r.Upload(checkerV1)
	e2, _, _ := r.Upload(checkerV2)
	r.SetVerdict(e1.ID, true, nil)
	r.SetVerdict(e2.ID, true, nil)
	if err := r.SetEnabled(e1.ID, true); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEnabled(e2.ID, true); err != nil {
		t.Fatal(err)
	}
	on, _ := r.Enabled()
	if len(on) != 1 || on[0].Entry.ID != e2.ID {
		t.Fatalf("v2 did not supersede v1: %+v", on)
	}
}

// TestPersistenceRoundTrip pins the ISSUE's restart criterion: upload,
// validate, enable, then reopen the directory as a fresh registry —
// entries, sources, verdicts, and the enabled set all survive.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, _, err := r.Upload(checkerV1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, _ := r.Upload(checkerV2)
	o, _, _ := r.Upload(otherChecker)
	verdict := json.RawMessage(`{"status":"admitted","z":3.1}`)
	r.SetVerdict(e1.ID, true, verdict)
	r.SetVerdict(o.ID, false, json.RawMessage(`{"status":"rejected"}`))
	if err := r.SetEnabled(e1.ID, true); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second registry over the same directory.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r2.List()); got != 3 {
		t.Fatalf("after restart: %d entries, want 3", got)
	}
	g1, ok := r2.Get(e1.ID)
	if !ok || g1.Status != StatusAdmitted || g1.Version != 1 {
		t.Fatalf("entry lost state across restart: %+v", g1)
	}
	var decoded struct {
		Status string  `json:"status"`
		Z      float64 `json:"z"`
	}
	if err := json.Unmarshal(g1.Verdict, &decoded); err != nil || decoded.Status != "admitted" || decoded.Z != 3.1 {
		t.Fatalf("verdict lost across restart: %s err=%v", g1.Verdict, err)
	}
	if g2, _ := r2.Get(e2.ID); g2.Status != StatusPending || g2.Version != 2 {
		t.Fatalf("v2 entry wrong after restart: %+v", g2)
	}
	if gOther, _ := r2.Get(o.ID); gOther.Status != StatusRejected {
		t.Fatalf("rejected entry wrong after restart: %+v", gOther)
	}
	src, err := r2.Source(e1.ID)
	if err != nil || src != checkerV1 {
		t.Fatalf("source blob lost: %q err=%v", src, err)
	}
	on, err := r2.Enabled()
	if err != nil || len(on) != 1 || on[0].Entry.ID != e1.ID {
		t.Fatalf("enable state lost across restart: %+v err=%v", on, err)
	}
	// Versions keep counting after a restart.
	e3, _, err := r2.Upload(checkerV1 + "\n// tweaked\n")
	if err != nil || e3.Version != 3 {
		t.Fatalf("post-restart version = %+v err=%v", e3, err)
	}
}

// TestAlteredBlobIsAnError: a blob edited on disk no longer matches its
// content address, so a reopened registry refuses to serve it, through
// Source and through the enabled set, as it would a missing blob.
func TestAlteredBlobIsAnError(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := r.Upload(checkerV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetVerdict(e.ID, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEnabled(e.ID, true); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", e.ID), []byte(checkerV2), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src, err := r2.Source(e.ID); err == nil {
		t.Fatalf("altered blob served: %q", src)
	}
	if on, err := r2.Enabled(); err == nil {
		t.Fatalf("altered blob enabled: %+v", on)
	}
}

// TestReopenedBlobParsedOnce: a reopened registry parses a blob the
// first time it is read back and hands out that parse from then on.
func TestReopenedBlobParsedOnce(t *testing.T) {
	dir := t.TempDir()
	r, _ := Open(dir)
	e, _, err := r.Upload(checkerV1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetVerdict(e.ID, true, nil)
	r.SetEnabled(e.ID, true)
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r2.Enabled()
	if err != nil || len(first) != 1 {
		t.Fatalf("enabled = %+v err=%v", first, err)
	}
	second, _ := r2.Enabled()
	if first[0].Checker != second[0].Checker || first[0].Checker.ID != e.ID {
		t.Error("two reads of the enabled set hand out two parses of one blob")
	}
	if src, _ := r2.Source(e.ID); src != checkerV1 {
		t.Errorf("source = %q", src)
	}
}

func TestDeleteClearsEverything(t *testing.T) {
	dir := t.TempDir()
	r, _ := Open(dir)
	e, _, err := r.Upload(checkerV1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetVerdict(e.ID, true, nil)
	r.SetEnabled(e.ID, true)
	if err := r.Delete(e.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(e.ID); ok {
		t.Error("entry survives delete")
	}
	if on, _ := r.Enabled(); len(on) != 0 {
		t.Error("enable state survives delete")
	}
	r2, _ := Open(dir)
	if got := len(r2.List()); got != 0 {
		t.Errorf("delete not persisted: %d entries after restart", got)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "blobs", "*")); err != nil {
		t.Fatal(err)
	}
}

// TestEnableStateTracksActiveSet: only enable and disable move the
// active set; a verdict and a repeated disable do not.
func TestEnableStateTracksActiveSet(t *testing.T) {
	r, _ := Open("")
	e, _, _ := r.Upload(checkerV1)
	r.SetVerdict(e.ID, true, nil)
	if ids := enabledIDs(t, r); len(ids) != 0 {
		t.Errorf("verdict enabled %v", ids)
	}
	r.SetEnabled(e.ID, true)
	if ids := enabledIDs(t, r); len(ids) != 1 || ids[0] != e.ID {
		t.Errorf("after enable: %v", ids)
	}
	r.SetEnabled(e.ID, false)
	if ids := enabledIDs(t, r); len(ids) != 0 {
		t.Errorf("after disable: %v", ids)
	}
	if err := r.SetEnabled(e.ID, false); err != nil { // already off: no-op
		t.Errorf("no-op disable: %v", err)
	}
	if ids := enabledIDs(t, r); len(ids) != 0 {
		t.Errorf("after no-op disable: %v", ids)
	}
}

// TestConcurrentAccess exercises the registry under -race: parallel
// uploads, enables, and reads must not corrupt state.
func TestConcurrentAccess(t *testing.T) {
	r, _ := Open(t.TempDir())
	e, _, err := r.Upload(checkerV1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetVerdict(e.ID, true, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				r.SetEnabled(e.ID, true)
				r.Enabled()
				r.List()
				r.SetEnabled(e.ID, false)
			}
		}()
	}
	wg.Wait()
}

// TestOldStateFileMigrates: a state.json written while the registry
// kept one enabled set per name opens with its "default" set enabled
// and every other set dropped, and the next save writes only the one
// set.
func TestOldStateFileMigrates(t *testing.T) {
	dir := t.TempDir()
	a, b := cc.HashBytes([]byte(checkerV1)), cc.HashBytes([]byte(otherChecker))
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for id, src := range map[string]string{a: checkerV1, b: otherChecker} {
		if err := os.WriteFile(filepath.Join(dir, "blobs", id), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := fmt.Sprintf(`{
  "entries": [
    {"id": %[1]q, "name": "demo_checker", "version": 1, "lines": 11, "status": "admitted"},
    {"id": %[2]q, "name": "other_checker", "version": 1, "lines": 10, "status": "admitted"}
  ],
  "tenants": {"default": [%[1]q], "other": [%[2]q]}
}`, a, b)
	if err := os.WriteFile(filepath.Join(dir, "state.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := enabledIDs(t, r); len(ids) != 1 || ids[0] != a {
		t.Fatalf("migrated enabled set = %v, want [%s]", ids, a)
	}
	on, err := r.Enabled()
	if err != nil || len(on) != 1 || on[0].Checker.Source != checkerV1 {
		t.Fatalf("migrated checker does not load: %+v err=%v", on, err)
	}

	if err := r.SetVerdict(b, false, nil); err != nil { // any save
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var saved map[string]json.RawMessage
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	if _, ok := saved["tenants"]; ok {
		t.Errorf("save wrote the old per-name sets: %s", data)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := enabledIDs(t, r2); len(ids) != 1 || ids[0] != a {
		t.Errorf("enabled set after a save and reopen = %v, want [%s]", ids, a)
	}
}

// enabledIDs is the active set's IDs in (name, version) order.
func enabledIDs(t *testing.T, r *Registry) []string {
	t.Helper()
	on, err := r.Enabled()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, es := range on {
		ids = append(ids, es.Entry.ID)
	}
	return ids
}
