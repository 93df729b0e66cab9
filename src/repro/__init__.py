"""UDT — UDP-based Data Transport (SC '04) reproduction.

Importing ``repro`` loads nothing else: the simulator, the two
transports and the tooling each load when named (``repro.sim``,
``repro.udt``, ``repro.tcp``; see docs/API.md).  README.md has the tour
and ``python -m repro list`` the experiment catalogue.
"""

__version__ = "1.0.0"
