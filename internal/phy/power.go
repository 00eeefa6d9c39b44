package phy

import "math"

// DBmToMilliwatts converts a power level in dBm to linear milliwatts.
// -Inf dBm maps to 0 mW, so sentinel thresholds (e.g. a disabled
// carrier-sense floor) survive the conversion.
func DBmToMilliwatts(dbm float64) float64 {
	if math.IsInf(dbm, -1) {
		return 0
	}
	return math.Pow(10, dbm/10)
}
