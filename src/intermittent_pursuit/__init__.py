"""Pursuit-evasion on a finite horizon with a budget of remote sensor requests.

The pursuer moves at unit speed but sees the evader only through at most
``n`` position fixes it must explicitly request; the evader is slower
(speed ``nu`` < 1) and sees everything.  The package provides an
event-exact simulator for this game, closed-form evaluators for the
pursuer's guaranteed-payoff bound and sensing budgets, and verification
suites that test those closed forms against adversarial simulation.

The package exports exactly the names in each module's ``__all__``.
"""

from .core import *  # noqa: F403
from .engine import *  # noqa: F403
from .strategies import *  # noqa: F403
from .value import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"
