package trace

import "os"

// ReadFile reads and validates the trace file at path: the one home of
// the -trace flag that cachesim, cachesweep and advisor share. Strict
// decoding (lenient false) accepts any format ReadAuto does and fails
// on the first malformed record. Lenient decoding reads a CWT1 file
// with ReadBinaryLenient, skipping corrupt records, and reports what
// was lost in the returned DecodeStats. Either way a decoded trace
// that fails Validate is an error: an access that wraps the address
// space would reach the cache as two line fetches, while reuse and
// writecache count it as touching no line.
func ReadFile(path string, lenient bool) (*Trace, DecodeStats, error) {
	var ds DecodeStats
	f, err := os.Open(path)
	if err != nil {
		return nil, ds, err
	}
	defer f.Close()
	var tr *Trace
	if lenient {
		tr, ds, err = ReadBinaryLenient(f)
	} else {
		tr, err = ReadAuto(f)
	}
	if err == nil {
		err = tr.Validate()
	}
	if err != nil {
		return nil, ds, err
	}
	return tr, ds, nil
}
