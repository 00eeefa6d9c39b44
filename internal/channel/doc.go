// Package channel models the shared wireless medium in one of two
// regimes selected by Medium.Geometry.
//
// # Scalar regime (Geometry == nil)
//
// The legacy single collision domain: every attached radio hears every
// transmission, any overlap in time collides every involved frame at
// every receiver (no capture effect), and non-collided frames are
// subject to an error model. This is the regime every pre-spatial
// golden baseline was recorded under, and it remains bit-identical.
//
// # Spatial regime (Geometry != nil)
//
// Radios have positions and the medium computes physics per pair:
//
//   - A log-distance path-loss model yields a symmetric per-pair
//     received-power matrix (Geometry.RxPowerDBm), built lazily from
//     radio positions at the first Transmit.
//   - Carrier sense is per receiver: a radio's CarrierBusy/CarrierIdle
//     edges fire when the summed received power of in-flight
//     transmissions crosses Geometry.CSThresholdDBm (own transmissions
//     always count as busy). Stations outside each other's sense range
//     do not defer to one another — hidden and exposed terminals
//     emerge from geometry, not special cases.
//   - Decoding uses SINR with capture: for each receiver the medium
//     tracks the worst-instant aggregate interference over the frame's
//     airtime, and the frame decodes (RxOK) iff its SINR clears the
//     rate's decode threshold (SINRThresholdDB) plus
//     Geometry.CaptureMarginDB. A frame with no overlap at a receiver
//     always decodes. Overlapping transmitters can never decode each
//     other (half-duplex). Receivers below Geometry.DeliveryFloorDBm
//     get no EndRx at all — no NAV, no EIFS, no promiscuous copy.
//
// The scalar regime is exactly the degenerate point of the spatial
// one: DegenerateGeometry() (carrier sense and delivery floor at -Inf,
// capture margin +Inf) reproduces the scalar channel's busy edges,
// collision marking, and deliveries byte-for-byte on the same event
// stream, drawing zero additional random numbers. The differential
// suite in internal/node pins that equivalence.
//
// In both regimes the medium owns each Transmission record: it recycles
// the record once the transmission has finished, zeroed, so a radio
// reads it only inside EndRx.
//
// Error models are orthogonal to both regimes and range from "no
// loss" through fixed per-link frame loss (used to reproduce the
// paper's SoRa testbed, which observed 12%/2% loss for stock TCP vs
// TCP/HACK) to a physical SNR model: log-distance path loss feeding
// AWGN bit-error-rate curves per modulation, with convolutional-code
// performance estimated by a Chernoff union bound (the approach of
// ns-3's NIST error model) — used for the paper's Figure 11 SNR
// sweep. SINRThresholdDB reuses the same FrameErrorRate tables, so
// the capture threshold and the noise model cannot drift apart.
package channel
