package edgenet

import "repro/internal/obs"

// Telemetry for the edge-cloud substrate (docs/OBSERVABILITY.md).
//
// The server side binds to a per-server registry created in NewServer: the
// registry is the single source of truth for the protocol counters, and the
// legacy Stats/StatsSnapshot API is a thin view over it, so KindStats
// responses and /metrics can never disagree. A server registry is always
// enabled — Stats is part of the protocol, not optional telemetry — and is
// never affected by obs.Default()'s on/off switch.
//
// The client side binds to obs.Default(): devices are many and short-lived,
// so their RPC latency/size histograms aggregate process-wide. The client's
// RetryStats struct stays the authoritative per-client count (tests and the
// fed layer read it); the registry mirrors it.

// kindName renders a MsgKind as the metric label value.
func kindName(k MsgKind) string {
	switch k {
	case KindHello:
		return "hello"
	case KindGetSubModel:
		return "get_sub_model"
	case KindPushUpdate:
		return "push_update"
	case KindStats:
		return "stats"
	case KindShutdown:
		return "shutdown"
	default:
		return "unknown"
	}
}

// allKinds enumerates the protocol kinds for eager handle creation (map
// lookups on the hot path must never allocate or take the registry lock).
var allKinds = []MsgKind{KindHello, KindGetSubModel, KindPushUpdate, KindStats, KindShutdown, MsgKind(0)}

// serverMetrics holds one server's handles on its private registry.
type serverMetrics struct {
	reg *obs.Registry

	bytesIn, bytesOut *obs.Counter

	retries, timeouts, resets *obs.Counter
	dedups, acceptRetries     *obs.Counter

	subModelsServed, updatesReceived, aggregations *obs.Counter

	// Wire-format v2: payload encodings by kind, plus the raw/compressed
	// ratio actually achieved (≥1 means the payload beat raw float32).
	wireFull, wireDelta, wireFallbacks *obs.Counter
	wireRatio                          *obs.Histogram

	rpcSeconds         map[MsgKind]*obs.Histogram
	reqBytes, rspBytes map[MsgKind]*obs.Histogram
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	r.Help("nebula_edgenet_server_traffic_bytes_total", "Bytes moved by the server, by direction.")
	r.Help("nebula_edgenet_server_events_total", "Protocol fault-tolerance events observed by the server.")
	r.Help("nebula_edgenet_server_submodels_served_total", "Personalized sub-models derived and served.")
	r.Help("nebula_edgenet_server_updates_received_total", "Device updates accepted into the aggregation buffer.")
	r.Help("nebula_edgenet_server_aggregations_total", "Module-wise aggregations performed.")
	r.Help("nebula_edgenet_server_rpc_seconds", "Server-side request handling latency (decode to flushed response), by kind.")
	r.Help("nebula_edgenet_server_payload_bytes", "Wire size of one request (dir=in) or response (dir=out), by kind.")
	r.Help("nebula_edgenet_server_wire_total", "Wire-format v2 payload encodings: full, delta, or delta rejected for a stale base (fallback).")
	r.Help("nebula_edgenet_server_wire_compression_ratio", "Raw float32 bytes divided by v2 payload wire bytes, per encoded payload.")
	m := &serverMetrics{
		reg:             r,
		bytesIn:         r.Counter("nebula_edgenet_server_traffic_bytes_total", "dir", "in"),
		bytesOut:        r.Counter("nebula_edgenet_server_traffic_bytes_total", "dir", "out"),
		retries:         r.Counter("nebula_edgenet_server_events_total", "event", "retry"),
		timeouts:        r.Counter("nebula_edgenet_server_events_total", "event", "timeout"),
		resets:          r.Counter("nebula_edgenet_server_events_total", "event", "reset"),
		dedups:          r.Counter("nebula_edgenet_server_events_total", "event", "dedup"),
		acceptRetries:   r.Counter("nebula_edgenet_server_events_total", "event", "accept_retry"),
		subModelsServed: r.Counter("nebula_edgenet_server_submodels_served_total"),
		updatesReceived: r.Counter("nebula_edgenet_server_updates_received_total"),
		aggregations:    r.Counter("nebula_edgenet_server_aggregations_total"),
		wireFull:        r.Counter("nebula_edgenet_server_wire_total", "encoding", "full"),
		wireDelta:       r.Counter("nebula_edgenet_server_wire_total", "encoding", "delta"),
		wireFallbacks:   r.Counter("nebula_edgenet_server_wire_total", "encoding", "fallback"),
		wireRatio:       r.Histogram("nebula_edgenet_server_wire_compression_ratio", obs.ExpBuckets(1, 1.5, 12)),
		rpcSeconds:      map[MsgKind]*obs.Histogram{},
		reqBytes:        map[MsgKind]*obs.Histogram{},
		rspBytes:        map[MsgKind]*obs.Histogram{},
	}
	for _, k := range allKinds {
		m.rpcSeconds[k] = r.Histogram("nebula_edgenet_server_rpc_seconds", obs.DefBuckets, "kind", kindName(k))
		m.reqBytes[k] = r.Histogram("nebula_edgenet_server_payload_bytes", obs.SizeBuckets, "kind", kindName(k), "dir", "in")
		m.rspBytes[k] = r.Histogram("nebula_edgenet_server_payload_bytes", obs.SizeBuckets, "kind", kindName(k), "dir", "out")
	}
	return m
}

// clientMetrics are the process-wide device-side handles on obs.Default().
var clientMetrics = newClientMetrics(obs.Default())

type clientMetricsT struct {
	rpcSeconds         map[MsgKind]*obs.Histogram
	reqBytes, rspBytes map[MsgKind]*obs.Histogram

	retries, reconnects, timeouts *obs.Counter
	// wireFallbacks counts delta pushes the server bounced with NeedFull,
	// each re-sent as a full payload.
	wireFallbacks *obs.Counter
}

func newClientMetrics(r *obs.Registry) *clientMetricsT {
	r.Help("nebula_edgenet_client_rpc_seconds", "Client-observed call latency (send to decoded response), by kind; retries time each attempt separately.")
	r.Help("nebula_edgenet_client_payload_bytes", "Wire size of one sent request (dir=out) or received response (dir=in), by kind.")
	r.Help("nebula_edgenet_client_events_total", "Client-side recovery actions, mirroring RetryStats.")
	m := &clientMetricsT{
		rpcSeconds:    map[MsgKind]*obs.Histogram{},
		reqBytes:      map[MsgKind]*obs.Histogram{},
		rspBytes:      map[MsgKind]*obs.Histogram{},
		retries:       r.Counter("nebula_edgenet_client_events_total", "event", "retry"),
		reconnects:    r.Counter("nebula_edgenet_client_events_total", "event", "reconnect"),
		timeouts:      r.Counter("nebula_edgenet_client_events_total", "event", "timeout"),
		wireFallbacks: r.Counter("nebula_edgenet_client_events_total", "event", "wire_fallback"),
	}
	for _, k := range allKinds {
		m.rpcSeconds[k] = r.Histogram("nebula_edgenet_client_rpc_seconds", obs.DefBuckets, "kind", kindName(k))
		m.reqBytes[k] = r.Histogram("nebula_edgenet_client_payload_bytes", obs.SizeBuckets, "kind", kindName(k), "dir", "out")
		m.rspBytes[k] = r.Histogram("nebula_edgenet_client_payload_bytes", obs.SizeBuckets, "kind", kindName(k), "dir", "in")
	}
	return m
}

// Registry exposes the server's private metrics registry so binaries can
// mount it on an obs.Admin (merged with obs.Default()).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// ClientWireFallbacks reports the process-wide count of delta pushes bounced
// with NeedFull and re-sent full — the /statusz round-health section surfaces
// it so a fleet stuck re-sending full payloads is visible at a glance.
func ClientWireFallbacks() int64 { return int64(clientMetrics.wireFallbacks.Value()) }
