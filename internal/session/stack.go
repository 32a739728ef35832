package session

import (
	"teledrive/internal/bridge"
	"teledrive/internal/netem"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// Stack is one built plant+link+operator-side endpoint: everything a
// session needs below the operator. The Client doubles as the control
// sink and the operator station's perception/meta endpoint; Links is
// the NETEM-emulated duplex between them — the communication network
// and its fault-injection surface.
type Stack struct {
	Plant  Plant
	Client *bridge.Client
	Links  *netem.Duplex
}

// StackBuilder constructs a stack over a scenario's world. rds.Run
// uses NewStack (simulator plant) unless the config supplies another
// builder (modelvehicle.NewStack wraps the same bridge in the
// scale-model plant).
type StackBuilder func(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*Stack, error)

// NewStack is the standard builder: a bridge server/client pair over a
// netem-emulated duplex link.
func NewStack(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*Stack, error) {
	sess, err := bridge.NewSessionWithTransport(clock, w, ego, seed, topts)
	if err != nil {
		return nil, err
	}
	return &Stack{
		Plant:  sess.Server,
		Client: sess.Client,
		Links:  sess.Conn.Links,
	}, nil
}
