package mac

import (
	"testing"
	"unsafe"
)

// maxStationSize is the largest Station that stays in Go's 896-byte
// size class. A heap object over 512 bytes that holds pointers carries
// an 8-byte header, so a Station over 888 bytes moves to the
// 1024-byte class. Measured on a 2-vCPU host: padding Station from 880
// to 896 bytes, nothing else changed, slowed
// BenchmarkScale/stations=1000 from 219 to 283 ms/op (median; slower
// in 8/8 alternating pairs), consistent with 1000 stations' hot DCF
// fields aliasing into a few cache sets at a 1024-byte stride.
const maxStationSize = 888

// TestStationSizeClass guards that cliff: per-station state that would
// push Station past it belongs behind a pointer (as the exchange
// record is) or in a freelist linked through the records themselves
// (as AckFrames are).
func TestStationSizeClass(t *testing.T) {
	n := unsafe.Sizeof(Station{})
	t.Logf("unsafe.Sizeof(Station{}) = %d bytes", n)
	if n > maxStationSize {
		t.Errorf("unsafe.Sizeof(Station{}) = %d bytes, over %d: Station leaves the 896-byte size class, "+
			"which slowed BenchmarkScale/stations=1000 from 219 to 283 ms/op when measured", n, maxStationSize)
	}
}
