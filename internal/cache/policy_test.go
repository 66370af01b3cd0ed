package cache

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestParseHelpers(t *testing.T) {
	if p, err := ParseWriteHit("WT"); err != nil || p != WriteThrough {
		t.Error("case-insensitive parse failed")
	}
	if _, err := ParseWriteHit(""); err == nil {
		t.Error("empty write-hit accepted")
	}
	if p, err := ParseReplacement(""); err != nil || p != LRU {
		t.Error("empty replacement should default to LRU")
	}
	if p, err := ParseWriteMiss("WI"); err != nil || p != WriteInvalidate {
		t.Error("short-form write-miss parse failed")
	}
	if _, err := ParseWriteMiss("write_validate"); err == nil {
		t.Error("misspelt write-miss accepted")
	}
	if _, err := ParseReplacement("mru"); err == nil {
		t.Error("unknown replacement accepted")
	}
}

// roundTrip marshals v to JSON and decodes it into a fresh value of the
// same type, failing the test if the result differs.
func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %v: %v", v, err)
	}
	var got T
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("%s round-tripped to %v, want %v", b, got, v)
	}
}

// TestPolicyJSONRoundTrip sends every policy value through
// encoding/json both as a value and as a map key (the text marshalers
// serve both), and checks that decoding accepts the short and
// upper-case names the parsers accept.
func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range []WriteHitPolicy{WriteThrough, WriteBack} {
		roundTrip(t, p)
		roundTrip(t, map[WriteHitPolicy]int{p: 1})
	}
	for _, p := range WriteMissPolicies() {
		roundTrip(t, p)
		roundTrip(t, map[WriteMissPolicy]int{p: 1})
	}
	for _, r := range []Replacement{LRU, FIFO, Random} {
		roundTrip(t, r)
		roundTrip(t, map[Replacement]int{r: 1})
	}

	var doc struct {
		Hit  WriteHitPolicy          `json:"hit"`
		Miss WriteMissPolicy         `json:"miss"`
		Keys map[WriteMissPolicy]int `json:"keys"`
	}
	if err := json.Unmarshal([]byte(`{"hit":"WB","miss":"wv","keys":{"WA":1,"fow":2}}`), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Hit != WriteBack || doc.Miss != WriteValidate {
		t.Errorf("decoded %v/%v, want write-back/write-validate", doc.Hit, doc.Miss)
	}
	if want := map[WriteMissPolicy]int{WriteAround: 1, FetchOnWrite: 2}; !reflect.DeepEqual(doc.Keys, want) {
		t.Errorf("decoded keys %v, want %v", doc.Keys, want)
	}
}
