package runtime

import (
	"sync"

	"repro/internal/core"
)

// The per-message hot path's boxes. liveEnv implements core.BoxPool and
// core.MirrorBoxPool, so a node sends every AppMsg and AppAck it builds,
// and the LogMirror of every inter-cluster send it logs, as a pointer
// into one of these pools instead of boxing the value into core.Msg,
// and the decoder hands a node what arrives in the pooled form (see
// tagAppMsgBox) in a box from the same pools. A box goes back exactly
// once, when nothing can read it any more:
//
//   - the TCP sender's, when its frame leaves the send window for good
//     (acknowledged, expired or refused) and never earlier, because a
//     broken connection is resent from the window;
//   - the receiver's, after the receiving node's OnMessage returns (core
//     copies what it keeps); on ChanTransport that is the sender's box
//     itself, one box per message.
//
// A box that is dropped on the way (a down endpoint, a full queue, a
// stopped federation) falls to the garbage collector.
var (
	appMsgBoxes    = sync.Pool{New: func() any { return new(core.AppMsg) }}
	appAckBoxes    = sync.Pool{New: func() any { return new(core.AppAck) }}
	logMirrorBoxes = sync.Pool{New: func() any { return new(core.LogMirror) }}
)

func (liveEnv) AppMsgBox() *core.AppMsg       { return appMsgBoxes.Get().(*core.AppMsg) }
func (liveEnv) AppAckBox() *core.AppAck       { return appAckBoxes.Get().(*core.AppAck) }
func (liveEnv) LogMirrorBox() *core.LogMirror { return logMirrorBoxes.Get().(*core.LogMirror) }

// reclaim gives a pooled box back, zeroed so that the pool keeps no
// payload or piggyback alive; any other message is left alone.
func reclaim(m core.Msg) {
	switch m := m.(type) {
	case *core.AppMsg:
		*m = core.AppMsg{}
		appMsgBoxes.Put(m)
	case *core.AppAck:
		*m = core.AppAck{}
		appAckBoxes.Put(m)
	case *core.LogMirror:
		*m = core.LogMirror{}
		logMirrorBoxes.Put(m)
	}
}
