package core

import (
	"fmt"

	"ecosched/internal/settings"
)

// SetService is `chronus set`: mutate the plugin configuration. The
// paper's three subcommands are database, blob-storage and state
// (Figure 10).
type SetService struct {
	deps Deps
}

// SetDatabase sets the repository path.
func (s *SetService) SetDatabase(path string) error {
	if path == "" {
		return fmt.Errorf("core: empty database path")
	}
	return s.mutate(func(cfg *settings.Settings) { cfg.DatabasePath = path })
}

// SetBlobStorage sets the blob storage path.
func (s *SetService) SetBlobStorage(path string) error {
	if path == "" {
		return fmt.Errorf("core: empty blob storage path")
	}
	return s.mutate(func(cfg *settings.Settings) { cfg.BlobStoragePath = path })
}

// SetState switches the plugin between active, user and deactivated.
func (s *SetService) SetState(state string) error {
	st := settings.State(state)
	if !st.Valid() {
		return fmt.Errorf("core: invalid state %q (want active, user or deactivated)", state)
	}
	return s.mutate(func(cfg *settings.Settings) { cfg.State = st })
}

func (s *SetService) mutate(fn func(*settings.Settings)) error {
	cfg, err := s.deps.Settings.Load()
	if err != nil {
		return err
	}
	fn(&cfg)
	return s.deps.Settings.Save(cfg)
}
