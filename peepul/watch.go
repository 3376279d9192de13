package peepul

// Watch: notification channels for remote-merge head moves. A watcher is
// a bounded channel fed from the sync path's Integrate — the single
// place every remote commit enters the node branch, whether the node was
// the client or the server of the exchange. Local commits never produce
// events (the application made them; it does not need to be told), which
// makes Watch exactly the "something changed under you" signal a live UI
// or cache needs.

import (
	"context"
	"sync"

	"repro/internal/store"
)

// watchBuffer is each watcher channel's capacity. A consumer that lags
// further behind loses the oldest events first: head moves supersede one
// another, so the newest is the one that matters.
const watchBuffer = 16

// WatchEvent reports one remote-merge head move of a watched object: a
// sync exchange with peer From moved the node branch's head to Head.
type WatchEvent struct {
	// Object is the object's name on the node.
	Object string
	// From is the name of the peer node whose commits moved the head.
	From string
	// Head names the branch's new head set (store.HeadSetHash): its
	// head commit's hash while it has one head.
	Head store.Hash
}

// watcher is one Watch subscription.
type watcher struct {
	ch chan WatchEvent
}

// watcherSet holds one object's Watch subscribers.
type watcherSet struct {
	mu     sync.Mutex
	ws     map[*watcher]struct{}
	closed bool
	done   chan struct{} // closed when the node shuts the set down
}

func newWatcherSet() *watcherSet {
	return &watcherSet{ws: make(map[*watcher]struct{}), done: make(chan struct{})}
}

// add registers a watcher. The returned channel closes when ctx is
// cancelled or the node closes; the detaching goroutine exits on either,
// so cancelled watchers do not accumulate.
func (s *watcherSet) add(ctx context.Context) <-chan WatchEvent {
	ch := make(chan WatchEvent, watchBuffer)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return ch
	}
	w := &watcher{ch: ch}
	s.ws[w] = struct{}{}
	s.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
		case <-s.done:
		}
		s.remove(w)
	}()
	return ch
}

// remove detaches w, closing its channel exactly once. The channel is
// only closed after w leaves the set, so broadcast never races a send
// against the close.
func (s *watcherSet) remove(w *watcher) {
	s.mu.Lock()
	_, present := s.ws[w]
	delete(s.ws, w)
	s.mu.Unlock()
	if present {
		close(w.ch)
	}
}

// shutdown detaches every watcher; the per-watcher goroutines, unblocked
// by done, perform the removals. Idempotent.
func (s *watcherSet) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
}

// broadcast delivers ev to every watcher without ever blocking the sync
// path: a full channel drops its oldest event to make room, so a slow
// consumer sees the newest head moves, not the stalest.
func (s *watcherSet) broadcast(ev WatchEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w := range s.ws {
		for {
			select {
			case w.ch <- ev:
			default:
				// Full: drop the oldest and retry. The set's lock makes
				// this goroutine the only sender, so the retry lands.
				select {
				case <-w.ch:
				default:
				}
				continue
			}
			break
		}
	}
}
