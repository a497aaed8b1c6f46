package lib

// Runner is the interface the application calls through.
type Runner interface {
	Run() int
	Rebind() Runner
}

// Live is what main builds.
type Live struct{ n int }

func NewLive() *Live { return &Live{} }

// Run is live: main calls it through Runner, never by name.
func (l *Live) Run() int { return l.n }

func (l *Live) Rebind() Runner { return NewLive() }

// Twice is dead: nothing calls it and no interface names it.
func (l *Live) Twice() int { return 2 * l.n }

// Dead names itself only through its own Rebind, and the assertion
// below is not a use.
type Dead struct{ path string }

func NewDead(path string) *Dead { return &Dead{path: path} }

func (d *Dead) Run() int { return len(d.path) }

func (d *Dead) Rebind() Runner { return NewDead(d.path) }

var _ Runner = (*Dead)(nil)

var _ Runner = (*Live)(nil)

const unused = 3
