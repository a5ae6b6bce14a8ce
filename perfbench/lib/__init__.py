"""Python half of the GNUMAP-SNP benchmark (see perfbench/README.md)."""
