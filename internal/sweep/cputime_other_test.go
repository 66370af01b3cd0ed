//go:build !unix

package sweep

import (
	"testing"
	"time"
)

var processStart = time.Now()

// cpuTime stands in for the process's CPU time where getrusage is
// missing: the wall time since the test binary started.
func cpuTime(testing.TB) time.Duration { return time.Since(processStart) }
