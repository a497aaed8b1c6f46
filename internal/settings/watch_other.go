//go:build !linux

package settings

// watcher never arms off Linux, so Load reads on every call there.
type watcher struct{}

func (*watcher) quiet() bool        { return false }
func (*watcher) settle(string) bool { return false }
func (*watcher) arm(string) bool    { return false }
func (*watcher) close() error       { return nil }
