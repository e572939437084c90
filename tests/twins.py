"""Facade-only twins of view trees for the differential tests."""


def facade_only(tree):
    """Drop a view tree's arrays, keeping its ``ViewNode`` facade, so
    every function given the tree walks the objects (and the CCT nodes
    behind their sources).  Returns the tree."""
    tree.root = tree.root
    return tree
