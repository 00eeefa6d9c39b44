// Package channel models the shared wireless medium: one engine whose
// physics Medium.Geometry sets.
//
// Radios have positions and the engine computes physics per pair:
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
// # Per-frame cost
//
// A frame's work follows the radios it reaches, not every attached
// radio. The radio set is fixed at the first Transmit: Attach panics
// after it, so the medium builds its state once. With the power matrix
// it builds each source's reach list: the radios at or above the
// delivery floor, in attach order. Outcomes, interference maxima and
// deliveries walk it; a source that reaches every radio walks one list
// shared by all such sources. Whether two overlapping frames are a
// coupled collision depends only on the power matrix, so the
// shared-receiver test runs once per pair of sources. The sensed-power
// sums and carrier states still cover every radio, since many weak
// frames can add up to the carrier-sense threshold.
//
// The capture decision compares the linear SINR with the threshold's
// linear value. Only inside a guard band of ±1e-6 dB around the
// threshold, far wider than a logarithm's rounding error, or for a
// threshold beyond ±1000 dB, does it take the logarithm and apply the
// rule in dB, so every decision is the dB rule's. Each rate's
// threshold and band are computed once per medium.
//
// # One collision domain
//
// The paper's setting is one collision domain: every radio hears every
// transmission and any overlap collides every involved frame at every
// receiver (no capture effect). That is the engine's limit with carrier
// sense and delivery floor at -Inf and capture margin +Inf, and a nil
// Geometry means the same. The medium
// detects it from the geometry's values at the first Transmit and then
// keeps no per-pair state: no power matrix, no sensed-power sums, no
// per-receiver SINR decisions. Every overlap collides, every other
// radio receives the frame, and carrier edges fire on every radio when
// the medium as a whole turns busy or idle. The differential suite
// (here and in internal/node) compares this path with the general
// engine under a finite near-degenerate geometry, which couples every
// radio to every other without being detected, and requires the same
// outcomes, carrier edges, event traces and campaign rows.
//
// # Listening radios
//
// A radio with nothing to do need not hear the medium as it happens. A
// radio listens from Attach on; StopListening takes it out of the
// fan-out and Listen puts it back. Carrier edges go to the listening
// radios only, in attach order, and the medium's carrier history
// (Carrier: the count of edges and the last busy and idle edge)
// records the ones a radio that listens again has missed. The general
// engine keeps that history per radio, and still delivers every frame
// to every radio it reaches, since it decides outcomes per receiver.
// In a single collision domain every radio hears the same thing, so
// the medium keeps one history, and where an Overhearer is set the
// deliveries go to the listening radios only: a frame costs the medium
// per listening radio, not per attached one. The Overhearer stands in
// for the others: it hears each finished transmission once, before the
// deliveries, with the outcome every radio but the source receives.
// internal/mac decides which stations stop listening and rebuilds
// their state when they listen again.
//
// The medium owns each Transmission record: it recycles the record
// once the transmission has finished, zeroed, so a radio reads it only
// inside EndRx.
//
// Error models are orthogonal to the geometry and range from "no
// loss" through fixed per-link frame loss (used to reproduce the
// paper's SoRa testbed, which observed 12%/2% loss for stock TCP vs
// TCP/HACK) to an SNR model for the paper's Figure 11 sweep: a fixed
// SNR feeding AWGN bit-error-rate curves per modulation, with
// convolutional-code performance estimated by a Chernoff union bound
// (the approach of ns-3's NIST error model). The medium uses the model
// it is given, and draws each frame's fate from its own random stream.
// SINRThresholdDB reuses the same FrameErrorRate tables, so the capture
// threshold and the noise model cannot drift apart.
package channel
