package nested

import (
	"testing"

	"deadcode"
)

func BenchmarkMeter(b *testing.B) {
	var m deadcode.Meter
	for i := 0; i < b.N; i++ {
		_ = m.Measure() + deadcode.Benchmarked()
	}
}
