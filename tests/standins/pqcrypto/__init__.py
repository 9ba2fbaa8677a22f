"""Stand-in for the `pqcrypto` wheels, put on sys.path by a test fixture."""
