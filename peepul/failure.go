package peepul

// Failure classification: the mesh supervisor treats a peer that is
// merely unreachable very differently from one that breaks the
// protocol. This file is the taxonomy: one label per exchange outcome,
// which both the session counters and the supervisor's retry schedule
// read.

import (
	"context"
	"errors"
	"io"
	"net"

	"repro/internal/store"
	"repro/internal/wire"
)

// Exchange outcomes: the outcome label of peepul_replica_sessions_total
// and peepul_mesh_rounds_total, and a failed span's FailClass.
const (
	outcomeOK        = "ok"
	outcomeTransient = "transient"
	outcomeViolation = "violation"
)

// classifyFailure labels one sync exchange's outcome: ok for a nil
// error, else transient or violation. Transport trouble — refused or
// timed-out dials, resets, cut connections, deadlines — is transient:
// the peer is down or the network is flaky, and the ordinary exponential
// backoff is the right schedule. Protocol violations — corrupt frames,
// malformed payloads, bad hellos, another protocol version, hash or
// canonicality failures on import — mean the bytes arrived and were
// wrong: the peer (or the path to it) is hostile or broken, and earns
// quarantine. Network causes are checked first because a framing error
// wrapping ECONNRESET is a cut wire, not a hostile peer.
func classifyFailure(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case isNetworkCause(err):
		return outcomeTransient
	case errors.Is(err, ErrProtocol),
		errors.Is(err, wire.ErrFraming),
		errors.Is(err, wire.ErrMalformed),
		errors.Is(err, wire.ErrVersion),
		errors.Is(err, store.ErrBadImport),
		errors.Is(err, store.ErrCorruptPack):
		return outcomeViolation
	}
	return outcomeTransient
}

// isNetworkCause reports whether err's chain contains a transport-level
// cause: a net.Error (timeouts, resets, refused dials — all *net.OpError
// values, and os.ErrDeadlineExceeded), a closed connection, a plain or
// mid-stream EOF, or a cancelled context.
func isNetworkCause(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
