"""Size caps guarding the exponential enumerations.

Everything downstream of a poset is exponential in its size, so misuse
should fail loudly instead of hanging.  Two caps can be raised:

* the element cap bounds the size of any poset whose linear extensions
  are enumerated (default 64, per-call override);
* the product cap bounds ``|P| * n`` for sums over all n! column
  labelings (default 12, overridden by the ``CANONLAB_CAP`` environment
  variable or a per-call / ``--force-cap`` value).

The kernel also bounds its own work with a fixed constant,
``kernel.MAX_LAYER_STATES``, that nothing overrides.
"""

import os

ELEMENT_CAP = 64
PRODUCT_CAP = 12

_ENV_CAP = "CANONLAB_CAP"


def element_cap(override=None):
    if override is not None:
        return int(override)
    return ELEMENT_CAP


def product_cap(override=None):
    if override is not None:
        return int(override)
    env = os.environ.get(_ENV_CAP)
    if env:
        return int(env)
    return PRODUCT_CAP
