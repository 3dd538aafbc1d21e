package report

import (
	"encoding/json"
	"reflect"
	"testing"
)

// Old baselines and cache entries keep decoding: those written before
// the witness and verdict fields existed, and those written while they
// did, whose extra keys are ignored.
func TestOldJSONWithoutVerdictFieldsParses(t *testing.T) {
	for _, old := range []string{
		`{"Checker":"free_checker","Msg":"use after free","Func":"f","Rule":"kfree","Vars":["p"]}`,
		`{"Checker":"free_checker","Msg":"use after free","Func":"f","Rule":"kfree","Vars":["p"],` +
			`"path":[{"kind":"branch","text":"n > 5","taken":true}],"multi_path":true,` +
			`"verdict":"infeasible","verdict_why":"n has an empty range"}`,
	} {
		var r Report
		if err := json.Unmarshal([]byte(old), &r); err != nil {
			t.Fatalf("old report JSON failed to parse: %v", err)
		}
		want := Report{Checker: "free_checker", Msg: "use after free", Func: "f", Rule: "kfree", Vars: []string{"p"}}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("old JSON decoded as %+v, want %+v", r, want)
		}
	}
}

// A report survives a marshal/unmarshal cycle bit-for-bit: the unit
// cache stores reports as JSON.
func TestReportJSONRoundTrip(t *testing.T) {
	r := &Report{
		Checker:         "free_checker",
		Rule:            "kfree",
		Msg:             "use after free",
		Func:            "f",
		Vars:            []string{"p"},
		Conditionals:    2,
		SynonymDepth:    1,
		Interprocedural: true,
		CallChain:       3,
		Class:           ClassError,
		Trace:           []string{"a.c:3: p enters state freed", "a.c:5: using p after free"},
	}
	r.Pos.File, r.Pos.Line, r.Pos.Col = "a.c", 5, 9
	r.Start.File, r.Start.Line = "a.c", 3
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, *r)
	}
}
