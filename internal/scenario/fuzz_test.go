package scenario

import "testing"

// FuzzScenarioSpec feeds hostile documents through the full spec pipeline:
// Parse (strict decode + validate), and when a document survives, Summary
// and Compile. The invariant is totality — scenario files are
// user-supplied input and must produce an error value, never a panic,
// whatever the bytes. Seed corpus: testdata/fuzz/FuzzScenarioSpec plus the
// f.Add seeds below (one valid spec per section, plus known edge shapes).
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"schema":1,"name":"t"}`))
	f.Add([]byte(`{"schema":1,"name":"t","base":{"vp":"campus1","scale":0.1,"seed":7,"shards":4,"profile":"no-dedup"}}`))
	f.Add([]byte(`{"schema":1,"name":"t","base":{"vp":"home1","scale":1e300}}`))
	f.Add([]byte(`{"schema":1,"name":"t","cohorts":[{"name":"a","preset":"office-worker","weight":0.5},{"name":"b","weight":0.5,"flash":[{"day":1,"until_day":2,"mult":3}]}]}`))
	f.Add([]byte(`{"schema":1,"name":"t","backend":{"preset":"scarce","timeline":[{"action":"surge","day":20,"until_day":22,"mult":4},{"action":"region-outage","day":1,"until_day":2,"region":1},{"action":"capacity-scale","day":30,"mult":2,"class":"storage"}]}}`))
	f.Add([]byte(`{"schema":9999999999,"name":"t"}`))
	f.Add([]byte(`{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1e308},{"name":"b","weight":1e308}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[{}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		_ = sp.Summary()
		if _, cerr := Compile(sp, 7); cerr != nil {
			// A validated spec should always compile: Compile re-checks the
			// same invariants. Surfacing a divergence here means Validate
			// and Compile disagree about what is legal.
			t.Fatalf("validated spec failed to compile: %v\nspec: %s", cerr, data)
		}
	})
}
