"""Experiment harness: sweep drivers, CSV reports, CLI entry point."""
