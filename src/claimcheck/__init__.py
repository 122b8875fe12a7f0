"""Iterative web-evidence claim verification with cooperating LLM agents."""
