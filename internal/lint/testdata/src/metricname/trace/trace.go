package trace

import "context"

// Tracer mirrors the real tracer's name-taking surface.
type Tracer struct{}

type Span struct{}

func (s *Span) End() {}

func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

func (t *Tracer) Event(name string, attrs map[string]string) {}
