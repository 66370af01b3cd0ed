// Package faults quantifies the paper's fourth dimension of write-hit
// comparison (§3): error tolerance. The paper's argument is
// qualitative — "a write-through cache can function with either hard
// or soft single-bit errors, if parity is provided ... a write-back
// cache can not tolerate a single-bit error of any type unless ECC is
// provided ... byte parity on a four-byte word would allow four
// single-bit errors to be corrected by refetching a write-through line
// in comparison to only one error for an ECC-protected write-back
// cache word."
//
// This package makes it quantitative: InjectHierarchy injects
// single-bit upsets into the data arrays of a hierarchy at a
// configurable rate during a trace replay and classifies each error's
// outcome under a protection scheme. Striking only LayerL1 answers the
// paper's single-cache question:
//
//   - Write-through + byte parity: any number of errors in a clean
//     line is recovered by refetch (counted, with its traffic).
//   - Write-back + word SEC ECC: one error per 32-bit word corrects;
//     two errors in the same word of a dirty line are a detected
//     unrecoverable error (clean lines still recover by refetch).
//   - Write-back + parity only: any error on a dirty word is a
//     detected unrecoverable error — the paper's reason write-back
//     "requires" ECC.
//
// Injection is deterministic for a given seed.
package faults

import "fmt"

// Scheme is a protection configuration.
type Scheme uint8

const (
	// ByteParity detects any odd number of bit errors per byte;
	// correction is by refetch, so it only saves clean data.
	ByteParity Scheme = iota
	// WordSECECC corrects one bit error per 32-bit word in place.
	WordSECECC
	// None is an unprotected array: upsets are never detected, so any
	// struck data is consumed or written onward silently corrupted —
	// the SDC baseline the campaign tables compare against.
	None
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case ByteParity:
		return "byte parity"
	case WordSECECC:
		return "word SEC ECC"
	case None:
		return "unprotected"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// ParseScheme reads a scheme name as used by CLI flags: "parity",
// "ecc" or "none".
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "parity":
		return ByteParity, nil
	case "ecc":
		return WordSECECC, nil
	case "none":
		return None, nil
	default:
		return 0, fmt.Errorf("faults: unknown protection scheme %q (want parity, ecc or none)", s)
	}
}
