package registry

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
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
	if err := r.Enable("t1", e.ID); err == nil {
		t.Fatal("pending checker was enabled")
	}
	if err := r.SetVerdict(e.ID, false, json.RawMessage(`{"status":"rejected"}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.Enable("t1", e.ID); err == nil {
		t.Fatal("rejected checker was enabled")
	}
	if err := r.SetVerdict(e.ID, true, json.RawMessage(`{"status":"admitted"}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.Enable("t1", e.ID); err != nil {
		t.Fatal(err)
	}
	on, err := r.Enabled("t1")
	if err != nil || len(on) != 1 || on[0].Entry.ID != e.ID || on[0].Source != checkerV1 {
		t.Fatalf("enabled = %+v err=%v", on, err)
	}
	// Other tenants see nothing.
	if off, _ := r.Enabled("t2"); len(off) != 0 {
		t.Errorf("tenant t2 sees t1's checkers: %+v", off)
	}
}

func TestEnableNewVersionSupersedesOld(t *testing.T) {
	r, _ := Open("")
	e1, _, _ := r.Upload(checkerV1)
	e2, _, _ := r.Upload(checkerV2)
	r.SetVerdict(e1.ID, true, nil)
	r.SetVerdict(e2.ID, true, nil)
	if err := r.Enable("t", e1.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.Enable("t", e2.ID); err != nil {
		t.Fatal(err)
	}
	on, _ := r.Enabled("t")
	if len(on) != 1 || on[0].Entry.ID != e2.ID {
		t.Fatalf("v2 did not supersede v1: %+v", on)
	}
}

// TestPersistenceRoundTrip pins the ISSUE's restart criterion: upload,
// validate, enable, then reopen the directory as a fresh registry —
// entries, sources, verdicts, and per-tenant enable state all survive.
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
	if err := r.Enable("alice", e1.ID); err != nil {
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
	on, err := r2.Enabled("alice")
	if err != nil || len(on) != 1 || on[0].Entry.ID != e1.ID {
		t.Fatalf("enable state lost across restart: %+v err=%v", on, err)
	}
	// Versions keep counting after a restart.
	e3, _, err := r2.Upload(checkerV1 + "\n// tweaked\n")
	if err != nil || e3.Version != 3 {
		t.Fatalf("post-restart version = %+v err=%v", e3, err)
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
	r.Enable("t", e.ID)
	if err := r.Delete(e.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(e.ID); ok {
		t.Error("entry survives delete")
	}
	if on, _ := r.Enabled("t"); len(on) != 0 {
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

// TestEnableStateTracksActiveSet: only enable and disable move a
// tenant's active set (EnabledIDs, what the daemon counts reloads by);
// a verdict and a repeated disable do not.
func TestEnableStateTracksActiveSet(t *testing.T) {
	r, _ := Open("")
	e, _, _ := r.Upload(checkerV1)
	r.SetVerdict(e.ID, true, nil)
	if ids := r.EnabledIDs("t"); len(ids) != 0 {
		t.Errorf("verdict enabled %v", ids)
	}
	r.Enable("t", e.ID)
	if ids := r.EnabledIDs("t"); len(ids) != 1 || ids[0] != e.ID {
		t.Errorf("after enable: %v", ids)
	}
	r.Disable("t", e.ID)
	if ids := r.EnabledIDs("t"); len(ids) != 0 {
		t.Errorf("after disable: %v", ids)
	}
	if err := r.Disable("t", e.ID); err != nil { // already off: no-op
		t.Errorf("no-op disable: %v", err)
	}
	if ids := r.EnabledIDs("t"); len(ids) != 0 {
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
		go func(i int) {
			defer wg.Done()
			tenant := string(rune('a' + i%4))
			for j := 0; j < 20; j++ {
				r.Enable(tenant, e.ID)
				r.Enabled(tenant)
				r.EnabledIDs(tenant)
				r.List()
				r.Disable(tenant, e.ID)
			}
		}(i)
	}
	wg.Wait()
}
