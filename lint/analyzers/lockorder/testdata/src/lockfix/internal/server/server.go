// Package server exercises the lockorder analyzer.
package server

import "sync"

type stream struct {
	mu   sync.RWMutex
	subs []chan int
	cb   func(int)
}

type shard struct {
	mu sync.Mutex
}

func (s *stream) sendUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		sub <- v // want "channel send on sub while holding s.mu"
	}
}

func (s *stream) sendMarkedSafe(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[0] <- v //loloha:locksafe buffered by construction and drained before every lock
}

func (s *stream) guardedSend(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		if len(sub) == cap(sub) {
			continue
		}
		sub <- v // ok: occupancy-guarded, cannot block
	}
}

func (s *stream) callbackUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cb(v) // want "call through a function value"
}

func (s *stream) callbackOutside(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.cb(v) // ok: released before the callback
}

func inversion(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "inverts the stream-before-shard lock order"
	b.mu.Unlock()
	a.mu.Unlock()
}

func (s *stream) shardUnderStream(sh *shard) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh.mu.Lock() // ok: stream-before-shard is the canonical order
	sh.mu.Unlock()
}

func (s *stream) reacquire() {
	s.mu.Lock()
	s.mu.Lock() // want "already held; re-acquiring self-deadlocks"
	s.mu.Unlock()
}

func (s *stream) publishLocked(v int) {
	for _, sub := range s.subs {
		sub <- v // want "channel send on sub while holding s.mu"
	}
}

func (s *stream) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		close(sub) // ok: close never blocks
	}
}
