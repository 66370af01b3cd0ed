package sweep_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
)

// ExampleGang reproduces the paper's headline comparison on a
// synthetic block copy: write-validate eliminates every write miss,
// half of all misses. Its body is the README's Quickstart snippet.
func ExampleGang() {
	t := &trace.Trace{Name: "copy"} // read a word, write its copy
	for i := 0; i < 1000; i++ {
		t.Append(trace.Event{Addr: 0x10000 + uint32(i*8), Size: 8, Kind: trace.Read})
		t.Append(trace.Event{Addr: 0x80000 + uint32(i*8), Size: 8, Kind: trace.Write})
	}
	base := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack}
	fow, wv := base, base
	fow.WriteMiss, wv.WriteMiss = cache.FetchOnWrite, cache.WriteValidate
	res, err := sweep.Gang(t, []cache.Config{fow, wv}) // one pass, both caches
	if err != nil {
		panic(err)
	}
	saved := float64(res[0].Misses()) - float64(res[1].Misses())
	fmt.Printf("write-validate removes %.0f%% of this copy's misses\n",
		100*saved/float64(res[0].Misses()))
	// Output:
	// write-validate removes 50% of this copy's misses
}

// TestReadmeQuickstartIsExampleGang keeps the README's Quickstart
// snippet the body of ExampleGang, so the example's run checks it.
func TestReadmeQuickstartIsExampleGang(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(src), "func ExampleGang() {\n")
	body, _, _ = strings.Cut(body, "\t// Output:")
	body = strings.ReplaceAll(strings.TrimPrefix(body, "\t"), "\n\t", "\n")
	if !strings.Contains(string(readme), "```go\n"+body+"```") {
		t.Errorf("README Quickstart snippet is not ExampleGang's body:\n%s", body)
	}
}
