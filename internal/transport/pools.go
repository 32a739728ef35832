package transport

import "teledrive/internal/netem"

// fragBufCap is the capacity of a pooled fragment buffer: one MTU-sized
// chunk of real bytes plus its fragment header. Every buffer the endpoint clones —
// outgoing fragments, held out-of-order frames, reassembly chunks — fits
// in one.
const fragBufCap = fragHeaderLen + MTU

// Pools is the shared buffer economy of one simulation's transport
// stack: outgoing fragment buffers and their segment records, reassembly
// state, and the netem payload pool for the links underneath. One Pools
// serves both endpoints of a Conn — the simulation loop is
// single-threaded, so there is no contention — and survives across runs
// when owned by a session.RunScratch, which is what makes the second
// drive through a recycled arena allocation-free on the packet path.
//
// Pools is not safe for concurrent use. Never share one Pools between
// concurrently executing simulations.
type Pools struct {
	// Net recycles packet payload clones inside the netem links.
	Net *netem.BufferPool

	bufs     [][]byte
	segs     []*segment
	partials []*partialMsg
}

// NewPools returns an empty pool set.
func NewPools() *Pools {
	return &Pools{Net: netem.NewBufferPool()}
}

// buf returns a length-n buffer (n ≤ fragBufCap) with arbitrary
// contents; callers overwrite every byte.
func (p *Pools) buf(n int) []byte {
	if l := len(p.bufs); l > 0 {
		b := p.bufs[l-1]
		p.bufs[l-1] = nil
		p.bufs = p.bufs[:l-1]
		return b[:n]
	}
	return make([]byte, n, fragBufCap)
}

// putBuf recycles a buffer taken from buf. Foreign buffers (different
// capacity) are dropped for the garbage collector.
func (p *Pools) putBuf(b []byte) {
	if cap(b) != fragBufCap {
		return
	}
	p.bufs = append(p.bufs, b[:0])
}

// seg returns a zeroed segment record.
func (p *Pools) seg() *segment {
	if l := len(p.segs); l > 0 {
		s := p.segs[l-1]
		p.segs[l-1] = nil
		p.segs = p.segs[:l-1]
		return s
	}
	return &segment{}
}

// putSeg recycles a segment record. The payload buffer is recycled
// separately (putBuf) by the caller.
func (p *Pools) putSeg(s *segment) {
	*s = segment{}
	p.segs = append(p.segs, s)
}

// partial returns a reassembly record sized for count chunks, with every
// chunk slot nil.
func (p *Pools) partial(count int) *partialMsg {
	var pm *partialMsg
	if l := len(p.partials); l > 0 {
		pm = p.partials[l-1]
		p.partials[l-1] = nil
		p.partials = p.partials[:l-1]
	} else {
		pm = &partialMsg{}
	}
	if cap(pm.chunks) < count {
		pm.chunks = make([][]byte, count)
	} else {
		pm.chunks = pm.chunks[:count]
		clear(pm.chunks)
	}
	pm.have = 0
	pm.firstTS = 0
	return pm
}

// putPartial recycles a reassembly record. Chunk buffers still attached
// are recycled too.
func (p *Pools) putPartial(pm *partialMsg) {
	for i, c := range pm.chunks {
		if c != nil {
			p.putBuf(c)
			pm.chunks[i] = nil
		}
	}
	p.partials = append(p.partials, pm)
}
