package service

// Dir returns the store's data directory.
func (f *FileRepo) Dir() string { return f.dir }
