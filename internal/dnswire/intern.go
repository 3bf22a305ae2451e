package dnswire

// Interner deduplicates decoded domain-name strings. The sniffer decodes
// names into a reusable scratch buffer; converting that buffer to a string
// normally allocates once per name per packet. Because the population of
// names at a vantage point is small and heavy-tailed (the paper's Fig. 6
// shows the FQDN birth process flattening within minutes), interning turns
// the steady state into a map probe with zero allocations: Go compiles the
// map[string] lookup keyed by string(b) without materializing the string.
//
// An Interner is not safe for concurrent use. The engine keeps one per
// shard, shared by the shard's DNS decoder (QNAMEs) and its flow
// classifier (HTTP Host, TLS SNI and certificate names a flow's label does
// not already spell), so a shard holds one string per name. It is
// bounded: once maxEntries distinct names have been interned the table is
// reset rather than grown without limit, so a churn-heavy trace (random
// tracker hostnames, DGA malware) degrades to one allocation per name
// instead of exhausting memory.
type Interner struct {
	m   map[string]string
	max int
	// Resets counts table wipes caused by hitting the bound; a nonzero
	// value on a steady workload means maxEntries is undersized.
	Resets uint64
}

// defaultInternerSize bounds the table at roughly the resolver's default
// Clist order of magnitude; ~64k distinct names covers every synthetic
// scenario and the paper's vantage points with wide margin.
const defaultInternerSize = 1 << 16

// NewInterner creates a bounded interner. maxEntries <= 0 selects the
// default bound.
func NewInterner(maxEntries int) *Interner {
	if maxEntries <= 0 {
		maxEntries = defaultInternerSize
	}
	return &Interner{m: make(map[string]string, 256), max: maxEntries}
}

// Intern returns the canonical string for b, allocating only the first time
// a distinct name is seen.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if len(in.m) >= in.max {
		// clear keeps the map's storage, so the next fill does not pay the
		// growth the first one did.
		clear(in.m)
		in.Resets++
	}
	s := string(b)
	in.m[s] = s
	return s
}

// Len reports the number of distinct strings currently held.
func (in *Interner) Len() int { return len(in.m) }
