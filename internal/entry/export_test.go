package entry

import "alpenhorn/internal/wire"

// RoundsKept is how many rounds of each service a server remembers.
const RoundsKept = roundsKept

// RoundsHeld reports how many rounds of service the server holds state for.
func (s *Server) RoundsHeld(service wire.Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.rounds {
		if k.service == service {
			n++
		}
	}
	return n
}
