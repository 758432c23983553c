"""Computational engine for finite skew braces.

Builds braces from Cayley tables or bijective 1-cocycles, analyzes their
ideal and series structure, decides supersolubility with certificates,
derives and retracts set-theoretic Yang-Baxter solutions, and enumerates
all braces of a given small order by two independent routes.

The package re-exports the `__all__` of each submodule.  `skewbrace.census`
is the function `census`, bound over the submodule of the same name, and
so is `import skewbrace.census as m`.  The module is reached by
`from skewbrace.census import ...` or by `sys.modules["skewbrace.census"]`.
"""

from .errors import *
from .groups import *
from .braces import *
from .substructure import *
from .series import *
from .classify import *
from .ybe import *
from .census import *
from .fixtures import *

__version__ = "1.0.0"
