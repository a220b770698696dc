"""A miniature of the TAX error taxonomy ERR003 reads."""


class TaxError(Exception):
    pass


class BriefcaseError(TaxError):
    pass
